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
import numbers
import os
import weakref
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import GridError, InexactClass, NonFinitePotential, PositivityLost, StepFloor
from .grid import GridSpec, ScalarField, _Stencil, diff1, integrate
from .transverse import (
    HermitianField,
    _assemble,
    _check_floor,
    _checked_log_det,
    _ddbar_parts,
    _ddbar_program,
    _metric_with_ddbar,
    _parts,
    _spectrum,
    _spectrum_2x2,
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
# Relative tolerance of build_volume_form's ddbar-exactness checks on chi.
_EXACTNESS_TOL = 1e-8
# The end of RK4's real stability interval: |R(z)| = 1 at z = -_RK4_REAL_BOUND.
_RK4_REAL_BOUND = 2.785293563405282
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
    ``dt_safety`` is the fraction of RK4's stability bound that a step
    takes, at most ``dt_initial`` (see :func:`step`); at 1 the grid's
    highest mode is neutral, not damped.
    """

    class_k: int = 0
    dt_initial: float = 0.05
    dt_safety: float = 0.8
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
        if not isinstance(self.max_steps, numbers.Integral):
            raise GridError(f"max_steps: must be an integer, got {self.max_steps!r}")
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
    # The _Record of the diagnostics pass, which attaches it; ``replace`` and
    # the constructor leave it None.
    _stage: _Record | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.any(self.volume_density.values <= 0):
            raise GridError("volume density must be strictly positive")


class _Passes:
    """The number of :func:`_evaluate` passes run on one workspace.

    The workspace and the records of the states diagnosed on it share it.
    It refers to no workspace, so a record keeps none alive; once the
    workspace is gone, its count stands for good.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class _Record(NamedTuple):
    """What a diagnostics pass (:func:`_with_diagnostics`) attaches to the state it diagnosed."""

    phi: ScalarField
    t: float
    extended: bool
    rescaled: bool
    stage: np.ndarray | None  # f(phi, t) in its workspace's stage buffer, or None
    workspace: weakref.ref
    passes: _Passes  # the workspace's
    count: int  # passes.count right after the pass
    shape: tuple[int, ...]  # the swept shape


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

def _axis_symbol(resolution: int, period: float) -> np.ndarray:
    """Fourier symbol of the fourth-order second difference along one periodic axis.

    sigma(kappa) = -(1 - cos kappa)(7 - cos kappa) / (3 h^2) at numpy's FFT
    frequencies; it is <= 0, and largest in magnitude, 16 / (3 h^2), at the
    Nyquist mode of an even resolution.
    """
    h = period / resolution
    c = np.cos(2.0 * np.pi * np.fft.fftfreq(resolution))
    return -((1.0 - c) * (7.0 - c) / 3.0) / (h * h)


def _symbol_sup(resolutions, periods) -> float:
    """max |sum_a sigma_a| over the grid of these axes.

    Each sigma_a is <= 0, so that is the sum of their maxima.
    """
    total = 0.0
    for resolution, period in zip(resolutions, periods):
        total = total + float(np.max(np.abs(_axis_symbol(resolution, period))))
    return total


def _transverse_fft_symbol(spec: GridSpec) -> np.ndarray:
    """Fourier symbol of the ddbar-trace operator 0.25 * sum_j (Sx_j + Sy_j).

    Uses the symbol of the discrete fourth-order second-derivative stencil,
    so inverting it reproduces grid-exact potentials.
    """
    total = np.zeros(spec.transverse_shape)
    axes = zip(spec.transverse_resolution, spec.transverse_periods)
    for a, (resolution, period) in enumerate(axes):
        shape = [1] * (2 * spec.n)
        shape[a] = resolution
        total = total + _axis_symbol(resolution, period).reshape(shape)
    return 0.25 * total


def build_volume_form(omega0: HermitianField, chi: HermitianField) -> tuple[ScalarField, ScalarField]:
    """Solve for F with ddbar F = chi - ddbar log det(g_0); return (F, density).

    The scalar Poisson problem for F is obtained by tracing the coefficient
    matrices and inverted with the discrete stencil symbol on the periodic
    grid (zero-mean gauge).  F is then shifted by a constant so that the
    density e^F det(g_0) integrates to the same value as det(g_0).

    Raises
    ------
    InexactClass
        If the trace source has a nonzero mean or the full matrix residual
        sup || ddbar F - (chi - ddbar log det g_0) || exceeds 1e-8 (relative
        to the largest entry, at least 1): chi is not ddbar-exact on this chart.
    """
    return _volume_form(omega0.spec, log_det(omega0).values, chi)


def _volume_form(
    spec: GridSpec, ld0: np.ndarray, chi: HermitianField
) -> tuple[ScalarField, ScalarField]:
    """:func:`build_volume_form` from ``ld0``, the values of log det g_0."""
    source = _parts(chi.matrices) - _ddbar_parts(ld0, spec)
    trace = np.trace(source)

    scale = max(1.0, _sup_norm(source))
    mean = float(np.mean(trace))
    if not abs(mean) <= _EXACTNESS_TOL * scale:  # NaN, from a log det that overflowed, too
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

    residual = _sup_norm(source - _ddbar_parts(f_vals, spec))
    if residual > _EXACTNESS_TOL * scale:
        raise InexactClass(
            f"ddbar F misses the target by {residual:.3e} (tolerance {_EXACTNESS_TOL:.1e}); "
            "chi is not ddbar-exact on this chart"
        )

    det0 = ScalarField(spec, np.exp(ld0), basic=True)
    target = integrate(det0)
    current = integrate(ScalarField(spec, np.exp(f_vals) * det0.values, basic=True))
    f_vals = f_vals + np.log(target / current)
    density = ScalarField(spec, np.exp(f_vals) * det0.values, basic=True)
    return ScalarField(spec, f_vals, basic=True), density


def initial_state(
    omega_hat_0: HermitianField,
    chi: HermitianField | None = None,
    phi: ScalarField | None = None,
) -> FlowState:
    """Assemble an admissible flow state at t = 0.

    One spectrum of omega_hat_0 checks it positive, raising
    :class:`PositivityLost` located, and gives the log det of its volume form.
    """
    spec = omega_hat_0.spec
    ld0 = _checked_log_det(omega_hat_0)
    if chi is None:
        chi = HermitianField.zeros(spec)
    _, density = _volume_form(spec, ld0, chi)
    if phi is None:  # the metric is omega_hat_0, checked above
        return FlowState(0.0, ScalarField.zeros(spec, basic=True), omega_hat_0, chi, density)
    state = FlowState(0.0, phi, omega_hat_0, chi, density)
    transverse_metric(state).checked_positive()
    return state


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

def reference_form(state: FlowState, t: float) -> HermitianField:
    """omega_hat(t) = omega_hat_0 + t chi (unrescaled reference schedule)."""
    return HermitianField._assembled(state.omega_hat_0.spec, _reference_matrices(state, t, False))


def _reference_matrices(state: FlowState, t: float, rescaled: bool) -> np.ndarray:
    """The matrices of omega_hat(t) (see :meth:`_Workspace.reference`, which sums their parts)."""
    if rescaled:
        w = np.exp(-t)
        return state.chi.matrices + w * (state.omega_hat_0.matrices - state.chi.matrices)
    if t == 0.0:
        return state.omega_hat_0.matrices
    return state.omega_hat_0.matrices + t * state.chi.matrices


class _Block(NamedTuple):
    """The rows of one axis-0 block of a :class:`_Sweep`, and its views and programs, bound once.

    ``g`` and ``ld`` are the block's rows of the sweep's, ``ref`` and
    ``log_density`` those of its workspace's reference parts and log
    density, broadcast over the leaf axes of a full grid.  ``metric`` and
    ``ricci`` are the ddbar programs (:func:`transverse._ddbar_program`) of
    phi and of log det g into the lane's ``parts``; ``leaf2`` and ``leaf1``
    the leaf-axis derivatives 0.5 phi_aa and phi_a into ``tmp`` (none on a
    transverse grid).
    """

    rows: slice
    parts: np.ndarray
    tmp: np.ndarray
    g: np.ndarray
    ld: np.ndarray
    ref: np.ndarray
    log_density: np.ndarray
    metric: Callable[[], None]
    ricci: Callable[[], None]
    leaf2: tuple
    leaf1: tuple


class _Sweep:
    """The evaluation of one grid shape, in axis-0 blocks whose stencils and views are bound once.

    The operand ``phi`` and ``ld`` (log det g) are the cores of buffers with
    ``_HALO`` more axis-0 planes at each end, copied from the other end
    before a sweep, so a block reads its neighbours' planes through a view.
    ``g`` holds the parts of the metric, shape (n, n) + ``shape``, laid out
    as by :func:`transverse._ddbar_parts`.  ``ref`` and ``log_density`` are
    the workspace's buffers of the reference parts and the log density,
    which the blocks view.  The blocks alternate between two ``lanes``
    (even and odd blocks), each with its own block-sized temporaries, and
    :meth:`in_lanes` sweeps the second lane on a pool worker; a one-block
    sweep has one lane.
    """

    def __init__(
        self, shape: tuple[int, ...], hs: tuple[float, ...], ref: np.ndarray, log_density: np.ndarray
    ):
        n, n0, plane = ref.shape[0], shape[0], shape[1:]
        leaf = (1,) * (len(shape) - log_density.ndim)  # views broadcast over the leaf axes
        ref, log_density = ref.reshape(ref.shape + leaf), log_density.reshape(log_density.shape + leaf)
        padded_phi, padded_ld = (np.empty((n0 + 2 * _HALO,) + plane) for _ in range(2))
        self.phi, self.ld = padded_phi[_HALO:-_HALO], padded_ld[_HALO:-_HALO]
        # (padding, the planes at the other end of the core that it holds)
        self._phi_halo, self._ld_halo = (
            ((p[:_HALO], p[n0:n0 + _HALO]), (p[n0 + _HALO:], p[_HALO:2 * _HALO]))
            for p in (padded_phi, padded_ld)
        )
        self.g = np.empty((n, n) + shape)
        planes = max(1, min(n0, _BLOCK_BYTES // (8 * math.prod(plane))))
        leaf_axes = range(2 * n, len(shape))
        # Program temporaries: three of a block's rows, the second and third with the one
        # and two more planes a halo second difference reaches, for n >= 2 three with its
        # halo too.
        pads = (0, 1, 2) + ((2 * _HALO,) * 3 if n > 1 else ())
        self.lanes = []
        for first in range(0, min(n0, 2 * planes), planes):
            # The lane's first block is its largest: only the last block of the axis is short.
            size = min(planes, n0 - first)
            lane_parts = np.empty((n, n, size) + plane)
            lane_temps = [np.empty((size + pad,) + plane) for pad in pads]
            lane = []
            for i0 in range(first, n0, 2 * planes):
                rows = slice(i0, min(i0 + planes, n0))
                m, padded = rows.stop - i0, slice(i0, rows.stop + 2 * _HALO)
                parts = lane_parts[:, :, :m]
                temps = [t[:m + pad] for t, pad in zip(lane_temps, pads)]
                tmp, tmp1, tmp2 = temps[:3]
                phi = self.phi[rows]
                lane.append(_Block(
                    rows, parts, tmp, self.g[:, :, rows], self.ld[rows], ref[:, :, rows],
                    log_density[rows],
                    metric=_ddbar_program(padded_phi[padded], _HALO, hs, parts, temps),
                    ricci=_ddbar_program(padded_ld[padded], _HALO, hs, parts, temps),
                    leaf2=tuple(
                        _Stencil(2, phi, a, 2.0 * (hs[a] * hs[a]), tmp, tmp1, tmp2) for a in leaf_axes
                    ),
                    leaf1=tuple(_Stencil(1, phi, a, hs[a], tmp, tmp1) for a in leaf_axes),
                ))
            self.lanes.append(lane)
        self.blocks = [block for lane in self.lanes for block in lane]

    def in_lanes(self, body: Callable[..., list], *args) -> list:
        """The lists ``body(blocks, *args)`` of each lane, concatenated in lane order.

        The first lane runs here, a second one on the pool worker.  Both have
        finished before this returns or re-raises an exception of either
        (the calling lane's first), so the caller reads and writes the
        sweep's buffers alone again.  ``body`` runs only bound stencils and
        numpy; callers merge its per-block results with :func:`_merged`,
        which lane order cannot change.
        """
        if len(self.lanes) == 1:
            return body(self.lanes[0], *args)
        first, second = self.lanes
        future = _lane_worker().submit(body, second, *args)
        try:
            mine = body(first, *args)
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
        """sup |Ric - k g| with Ric = -ddbar log det g, from a kept :func:`_evaluate`."""
        for padding, planes in self._ld_halo:
            padding[...] = planes
        return _merged(max, self.in_lanes(_ricci_sups, class_k))

    def leaf_defect(self) -> float:
        """sup |phi_x| + sup |phi_y| along the leaves of the loaded operand of a full grid."""
        dxs, dys = zip(*self.in_lanes(_leaf_sups))
        return float(_merged(max, dxs) + _merged(max, dys))


def _merged(reduce: Callable, values) -> float:
    """``reduce`` (min or max) of the per-block floats ``values``, NaN if one is, as np.min or np.max.

    The builtins keep a NaN only where it comes first, and numpy's wrappers
    cost some 20 times as much on a few Python floats.
    """
    for value in values:
        if value != value:
            return value
    return reduce(values)


def _ricci_sups(blocks: list, class_k: int) -> list:
    """sup |Ric - k g| on each of ``blocks`` of one lane (see :meth:`_Sweep.ricci_sup`)."""
    sups = []
    for block in blocks:
        ddbar_ld, tmp = block.parts, block.tmp
        block.ricci()
        # |Ric - k g| = |ddbar ld + k g| bit for bit: a negation is exact.
        if class_k:
            for jk in np.ndindex(ddbar_ld.shape[:2]):
                np.multiply(block.g[jk], class_k, out=tmp)
                ddbar_ld[jk] += tmp
        sups.append(_sup_norm(ddbar_ld, tmp))
    return sups


def _leaf_sups(blocks: list) -> list:
    """[sup |phi_x|, sup |phi_y|] on each of ``blocks`` of one lane (see :meth:`_Sweep.leaf_defect`)."""
    sups = []
    for block in blocks:
        tmp, row = block.tmp, []
        for derivative in block.leaf1:
            derivative()
            row.append(np.abs(tmp, out=tmp).max())
        sups.append(row)
    return sups


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


class _Workspace:
    """What one flow run keeps from step to step, for one state's inputs and ``config``.

    The config, log(volume_density), the parts of omega_hat_0 and chi and
    the reference metric formed from them at the last t asked for, a
    :class:`_Sweep` and a first-stage buffer (:meth:`stage`) per grid
    shape, built on first use, and the step buffers ``k3``, ``k4`` and
    ``arg``, which the config's sweep lends: ``arg`` is its operand, so a
    stage argument is evaluated where it is written, ``k3`` and ``k4`` the
    first part of its ``g`` and its ``ld``, which only the diagnostics
    write, after the step.  A step makes its own ``k2``, which the new
    phi takes over.  :meth:`rhs` is the flow's one right-hand side.

    ``symbol_sup`` is max |S_T| of :func:`_transverse_fft_symbol`, and
    ``symbol_shift`` what the config's flow adds to the spectral radius
    of its linearization: 0.5 max |S_leaf| when extended, 1 when
    rescaled (see :func:`step`).  ``passes`` counts the :func:`_evaluate`
    calls on it.  Every write to a sweep's ``g`` (the step's ``k3``
    included) or to a stage buffer happens in such a call or after one,
    so while the count stands they are as the last pass left them.
    """

    def __init__(self, state: FlowState, config: FlowConfig):
        spec = state.phi.spec
        if config.extended and not spec.has_leaf:
            raise GridError("extended flow needs a spec with leaf axes")
        self.config = config
        self.spec, self.hs = spec, spec.spacings
        self.log_density = np.log(state.volume_density.values)
        self.symbol_sup = 0.25 * _symbol_sup(spec.transverse_resolution, spec.transverse_periods)
        self.symbol_shift = 0.0
        if config.extended:
            self.symbol_shift += 0.5 * _symbol_sup(spec.leaf_resolution, spec.leaf_periods)
        if config.rescaled:
            self.symbol_shift += 1.0
        p0, p_chi = _parts(state.omega_hat_0.matrices), _parts(state.chi.matrices)
        self._p0, self._p_chi = p0, p_chi
        if config.rescaled:
            self._p_gap = p0 - p_chi
        self._ref = np.empty(p0.shape)
        self._ref_t = None
        self._sweeps, self._stages = {}, {}
        self.passes = _Passes()
        sweep = self.sweep(spec.full_shape if config.extended else spec.transverse_shape)
        self.k3, self.k4, self.arg = sweep.g[0, 0], sweep.ld, sweep.phi

    def sweep(self, shape: tuple[int, ...]) -> _Sweep:
        """The sweep of ``shape``, built on the first call for it."""
        if shape not in self._sweeps:
            self._sweeps[shape] = _Sweep(shape, self.hs, self._ref, self.log_density)
        return self._sweeps[shape]

    def stage(self, shape: tuple[int, ...]) -> np.ndarray:
        """The buffer of a first stage f(phi, t) of ``shape``, made on the first call for it.

        Only :func:`_with_diagnostics` writes it, in or after a pass.
        """
        if shape not in self._stages:
            self._stages[shape] = np.empty(shape)
        return self._stages[shape]

    def reference(self, t: float) -> np.ndarray:
        """The parts of the reference metric at ``t``, valid until the next t.

        P0 + t P_chi, or P_chi + e^{-t} (P0 - P_chi) when rescaled, from the
        parts P0 of omega_hat_0 and P_chi of chi: part by part what
        :func:`_reference_matrices` forms in complex arithmetic.
        """
        if t != self._ref_t:
            ref = self._ref
            if self.config.rescaled:
                np.multiply(self._p_gap, np.exp(-t), out=ref)
                ref += self._p_chi
            elif t == 0.0:
                np.copyto(ref, self._p0)
            else:
                np.multiply(self._p_chi, t, out=ref)
                ref += self._p0
            self._ref_t = t
        return self._ref

    def rhs(
        self, phi: np.ndarray, t: float, out: np.ndarray | None = None, floor: float | None = None
    ) -> np.ndarray:
        """The flow's right-hand side at ``phi``, ``t``, written into ``out`` (when given) and returned.

        ``phi`` is C-contiguous, full when the config is extended, and does
        not overlap ``out``.  :func:`_evaluate` checks the metric against
        ``floor``, the config's positivity floor unless given, and raises a
        breach located; the rescaled flow then calibrates the result.
        """
        config = self.config
        if out is None:
            out = np.empty(phi.shape)
        if floor is None:
            floor = config.positivity_floor
        _evaluate(phi, t, self, floor, out)
        if config.rescaled:
            _calibrate(out, phi)
        return out


def _calibrate(f: np.ndarray, phi: np.ndarray) -> None:
    """f -= phi, then f -= mean(f), in place: the rescaled flow's calibrated right-hand side.

    The mean is np.mean's sum and division without its wrapper.
    """
    f -= phi
    f -= np.add.reduce(f, axis=None) / f.size


def _evaluate(phi, t, ws, floor, out, keep=False):
    """The flow at ``phi``, ``t``: the one place that forms the metric g and takes its log det.

    g = ghat(t) + ddbar phi is checked against ``floor`` before any log; a
    breach raises :class:`PositivityLost` with the minimum and its location
    over the whole grid.  f = log det g - log density, plus 0.5 (phi_xx +
    phi_yy) along the leaves of a full phi (one with leaf axes), goes into
    ``out``.  phi is swept block by block in the lanes of the workspace's
    sweep of its shape (:func:`_evaluate_lane`), bit-identical to a whole
    grid.  ``keep`` (the diagnostics) puts g and log det g into the sweep's
    ``g`` and ``ld``, where its Ricci sweep reads them.  Returns
    ``(lo, hi)``: the least eigenvalue over the grid and, with ``keep``,
    the largest (None without).
    """
    ws.passes.count += 1
    ws.reference(t)  # into the buffer that the sweep's blocks view
    sweep = ws.sweep(phi.shape)
    sweep.load(phi)
    lows, highs = zip(*sweep.in_lanes(_evaluate_lane, floor, out, keep))
    lo = _merged(min, lows)
    if not lo > floor:
        # Report the minimum and its location over the whole grid, as an
        # unblocked evaluation would.
        for block in sweep.blocks:
            out[block.rows] = _block_metric(block, block.parts, None)[0]
        _check_floor(out, floor)
    return lo, _merged(max, highs) if keep else None


def _evaluate_lane(blocks: list, floor: float, out: np.ndarray, keep: bool) -> list:
    """:func:`_evaluate` on ``blocks`` of one lane: (least, largest or None) eigenvalue of each.

    A block whose least eigenvalue is not above ``floor`` ends the lane
    before any log of it is taken.
    """
    bounds = []
    for block in blocks:
        g = block.g if keep else block.parts
        lows, highs, ld = _block_metric(block, g, floor)
        low = float(lows.min())
        bounds.append((low, float(highs.max()) if keep else None))
        if not low > floor:
            break  # no log of a breach; _evaluate locates it over the whole grid
        fb = out[block.rows]
        if len(g) == 1:  # n = 1: log det g is the log of the one entry
            ld = np.log(lows, out=block.ld if keep else fb)
        elif keep:
            np.copyto(block.ld, ld)
        np.subtract(ld, block.log_density, out=fb)
        for leaf in block.leaf2:  # 0.5 phi_xx, then 0.5 phi_yy along the leaves
            leaf()
            fb += block.tmp
    return bounds


def _block_metric(block: _Block, g: np.ndarray, floor: float | None):
    """g = ref + ddbar phi on the block's rows, and its (lows, highs, log det or None).

    The one place in the flow that takes the metric's spectrum.
    """
    block.metric()
    np.add(block.parts, block.ref, out=g)
    n = len(g)
    if n == 1:
        lows = g[0, 0]
        return lows, lows, None
    if n == 2:
        return _spectrum_2x2(g[0, 0], g[1, 1], g[0, 1], g[1, 0], floor)
    return _spectrum(_assemble(g), n, floor)


def ma_rhs(state: FlowState, t: float | None = None, positivity_floor: float = 1e-10) -> ScalarField:
    """Right-hand side log(det(ghat(t) + phi_{j kbar}) / density) at ``t``.

    phi must be basic here; the result is a basic real field.  Adding a
    constant to phi leaves the result unchanged bit for bit whenever the
    shifted values are exactly representable, because the stencils are
    written in difference form.  A metric at or below ``positivity_floor``
    (which must be >= 0) raises :class:`PositivityLost`, located.
    """
    if not state.phi.basic:
        raise GridError("ma_rhs expects a basic potential; use ma_rhs_extended")
    return ScalarField(state.phi.spec, _rhs_once(state, t, positivity_floor, False), basic=True)


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
    return ScalarField(spec, _rhs_once(state, t, positivity_floor, True), basic=False)


def _rhs_once(state: FlowState, t: float | None, floor: float, extended: bool) -> np.ndarray:
    """The right-hand side at ``t`` (the state's when None), on a workspace for this call.

    A ``floor`` below 0, or NaN, would let a metric that is not positive
    through to the log, so it raises :class:`GridError`.
    """
    if not floor >= 0:
        raise GridError(f"positivity_floor: must be >= 0, got {floor}")
    ws = _Workspace(state, FlowConfig(extended=extended))
    return ws.rhs(_phi_operand(state, extended), state.t if t is None else t, floor=floor)


def transverse_metric(
    state: FlowState, t: float | None = None, rescaled: bool = False
) -> HermitianField:
    """The evolving transverse metric ghat(t) + phi_{j kbar}.

    As in :func:`transverse.metric_from_potential`, the parts of the two are
    summed and assembled once, so the matrices are Hermitian by construction
    and their parts are exactly the sums.  At the state's own t, and for
    the flow variant (``rescaled``) whose diagnostics pass it got, the parts
    that pass left in its workspace are assembled, while no pass has run
    there since: the same sums, bit for bit.
    """
    tt = state.t if t is None else t
    kept = _kept_metric(state, tt, rescaled)
    if kept is not None:
        return HermitianField._assembled(state.phi.spec, _assemble(kept), basic=state.phi.basic)
    ref = _reference_matrices(state, tt, rescaled)
    return _metric_with_ddbar(state.phi.spec, ref, state.phi.values, state.phi.basic)


def _kept_metric(state: FlowState, t: float, rescaled: bool) -> np.ndarray | None:
    """The parts of g(t) that the state's diagnostics pass left in its sweep, or None.

    None unless ``t`` is the state's t, ``rescaled`` the variant of that
    pass, its workspace is alive with no pass run since, and the sweep was
    of phi's own shape (a leaf-constant full phi is swept on its slice).
    """
    record = state._stage
    if record is None or t != state.t or record.rescaled != rescaled:
        return None
    ws = record.workspace()
    if ws is None or record.passes.count != record.count:
        return None
    if record.shape != state.phi.values.shape:
        return None
    return ws.sweep(record.shape).g


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


def _check_steppable(state: FlowState, config: FlowConfig) -> None:
    """Raise :class:`GridError` when ``config`` cannot step ``state``'s phi."""
    if not (config.extended or state.phi.basic):
        raise GridError("a potential that is not basic is stepped only by the extended flow")


def _diagnosed(state: FlowState, config: FlowConfig) -> bool:
    """Whether the state's diagnostics come from a pass over its own phi and t for ``config``."""
    record = state._stage
    return record is not None and record.phi is state.phi and record.t == state.t and (
        (record.extended, record.rescaled) == (config.extended, config.rescaled)
    )


def _attached_stage(state: FlowState, config: FlowConfig) -> np.ndarray | None:
    """A read-only view of the f(phi, t) attached to ``state`` for ``config``, or None.

    The stage lives in a buffer of the workspace of the pass that attached
    it, so it is None too once a later pass has run there.
    """
    if not _diagnosed(state, config):
        return None
    record = state._stage
    if record.stage is None or record.passes.count != record.count:
        return None
    stage = record.stage.view()
    stage.flags.writeable = False
    return stage


def step(
    state: FlowState, config: FlowConfig, dt_cap: float | None = None, *, _workspace=None
) -> FlowState:
    """One classical RK4 step, its size taken from RK4's stability bound.

    The flow linearized at frozen coefficients, d(delta phi)/dt =
    tr(g^-1 ddbar delta phi) (+ 0.5 Delta_leaf delta phi when extended,
    - delta phi when rescaled), has a spectral radius of at most

        rho = max |S_T| / lambda_min + [extended] 0.5 max |S_leaf| + [rescaled] 1,

    where S_T is the stencil symbol of :func:`_transverse_fft_symbol`,
    S_leaf that of the leaf Laplacian and lambda_min the state's minimum
    eigenvalue.  The step is dt = min(dt_initial, dt_safety * 2.7853 / rho),
    2.7853 being the end of RK4's real stability interval: ``dt_safety``
    in (0, 1] is the fraction of the bound taken, and at 1 the grid's
    Nyquist mode is neutral.  A PositivityLost at any internal stage
    halves dt and retries, down to a floor of 1e-12 (then
    :class:`StepFloor`).  The potential is re-gauged to zero spatial mean
    after the step (a pure additive constant, invisible to the metric); a
    NaN or infinity in it raises :class:`NonFinitePotential`.

    The first stage is the one the state's diagnostics pass attached for
    ``config``, so a step evaluates the right-hand side three times; the
    returned state carries the first stage of the next step.  A state whose
    diagnostics that pass did not attach for its own phi, t and flow
    variant gets them afresh, and one whose stage a later pass on the same
    workspace has overwritten evaluates that stage afresh.  The returned
    phi takes over, without a copy, the array the step sums its stages
    into.  A metric at or below the config's floor in
    the given state, or not positive in the result of the step, raises
    :class:`PositivityLost` from :func:`_evaluate`, with its global minimum
    eigenvalue and grid location; no log of it is taken, and the step is
    not retried.
    A phi that is not basic under a config that is not extended raises
    :class:`GridError`.  :func:`run` passes its workspace, built for the
    same inputs and config, as ``_workspace``; otherwise one is made for the
    call.
    """
    _check_steppable(state, config)
    ws = _workspace or _Workspace(state, config)
    if not _diagnosed(state, config):
        state = _with_diagnostics(state, config, dphidt_sup=0.0, dt=0.0, workspace=ws)
    extended = config.extended
    phi0 = _phi_operand(state, extended)
    t0 = state.t
    k1 = _attached_stage(state, config)  # read-only
    if k1 is None:  # overwritten, or none at or below the floor: this raises the breach, located
        k1 = ws.rhs(phi0, t0)
    rho = ws.symbol_sup / state.diagnostics.min_eig + ws.symbol_shift
    dt = min(config.dt_initial, config.dt_safety * _RK4_REAL_BOUND / rho)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    # k2 is made here, not kept: the new phi takes it over, and by now a run
    # has let go of the state before this one, whose phi's memory it reuses.
    k2, k3, k4, arg = np.empty(phi0.shape), ws.k3, ws.k4, ws.arg

    while True:
        half = 0.5 * dt
        try:
            for k, c, stage in ((k1, half, k2), (k2, half, k3), (k3, dt, k4)):
                # The stage's argument phi0 + c k, written into the sweep's operand.
                np.multiply(k, c, out=arg)
                np.add(arg, phi0, out=arg)
                ws.rhs(arg, t0 + c, stage)
            break
        except PositivityLost:
            dt *= 0.5
            if dt < DT_FLOOR:
                raise StepFloor(f"time step fell below {DT_FLOOR:.0e} while retrying")

    dphidt_sup = float(np.abs(k1, out=arg).max())
    # phi0 + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), in that order of operations,
    # summed into k2 so that k1 stays as it is.
    k2 *= 2.0
    np.add(k1, k2, out=k2)
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += phi0
    mean = np.add.reduce(k2, axis=None) / k2.size  # np.mean's sum and division
    if not math.isfinite(mean):  # as is any mean over a NaN or an infinity
        raise NonFinitePotential(f"the step to t = {t0 + dt!r} made the potential non-finite")
    k2 -= mean
    new_phi = ScalarField._adopted(state.phi.spec, k2, basic=not extended and state.phi.basic)

    new_state = _derived(state, t=t0 + dt, phi=new_phi, diagnostics=None)
    return _with_diagnostics(new_state, config, dphidt_sup=dphidt_sup, dt=dt, workspace=ws)


def ricci_residual(state: FlowState, config: FlowConfig) -> float:
    """sup || Ric(omega(t)) - k omega(t) ||, the convergence functional.

    A metric that is not positive somewhere raises :class:`PositivityLost`
    with its global minimum eigenvalue and grid location, before any log.
    """
    return _with_diagnostics(state, config, dphidt_sup=0.0, dt=0.0).diagnostics.ricci_sup


def _sup_norm(parts: np.ndarray, out: np.ndarray | None = None) -> float:
    """max |entry| of the Hermitian field with these parts; off the diagonal |b| = hypot(Re b, Im b).

    Each entry's magnitudes are written into ``out``, or into a new array when it is None.
    """
    n = parts.shape[0]
    return float(max(
        (np.abs(parts[j, j], out=out) if j == k else np.hypot(parts[j, k], parts[k, j], out=out)).max()
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
    f(phi, t) for ``config``, bit-identical to :meth:`_Workspace.rhs`, goes
    into the workspace's stage buffer of its shape, and the :class:`_Record`
    attaches it with the phi, t and flow variant the diagnostics belong
    to; it is None at or below ``config``'s positivity floor and for a
    full phi that ``config`` does not extend.  The record also holds a
    weak reference to the workspace, its pass counter, the count after
    this pass and the swept shape: :func:`_attached_stage` hands the stage
    out, and :func:`transverse_metric` finds the metric this pass left in
    the sweep, while that count stands.
    ``dphidt_sup=None`` (the step-0 row) takes sup |f(phi, t)| from the
    stage, or evaluates f afresh, raising :class:`PositivityLost`.
    """
    ws = workspace or _Workspace(state, config)
    values = _leaf_constant_slice(state.phi)
    leaf_varying = values is None
    if leaf_varying:
        values = state.phi.values
    k1 = ws.stage(values.shape)
    lo, hi = _evaluate(values, state.t, ws, 0.0, k1, keep=True)
    sweep = ws.sweep(values.shape)
    ric_sup = sweep.ricci_sup(config.class_k)
    defect = sweep.leaf_defect() if leaf_varying else 0.0

    stage = None
    if lo > config.positivity_floor and (config.extended or state.phi.basic):
        if config.extended and not leaf_varying:
            # The leaf terms of a leaf-constant phi vanish bit for bit.
            full = ws.stage(state.phi.spec.full_shape)
            np.copyto(full, k1.reshape(k1.shape + (1, 1)))
            k1 = full
        if config.rescaled:
            _calibrate(k1, _phi_operand(state, config.extended))
        stage = k1
    if dphidt_sup is None:
        rhs = stage if stage is not None else ws.rhs(_phi_operand(state, config.extended), state.t)
        dphidt_sup = float(np.abs(rhs).max())

    diagnostics = FlowDiagnostics(
        ricci_sup=ric_sup, dphidt_sup=dphidt_sup, min_eig=lo, max_eig=hi,
        leafwise_defect=defect, dt=dt,
    )
    record = _Record(
        state.phi, state.t, config.extended, config.rescaled, stage,
        weakref.ref(ws), ws.passes, ws.passes.count, values.shape,
    )
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
            if state.t >= t_final - DT_FLOOR:
                return FlowReport(False, "not_converged", state.t, k - 1, history, state)
            dt_cap = t_final - state.t
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

    return FlowReport(False, "not_converged", state.t, config.max_steps, history, state)


def _failure(exc: PositivityLost) -> dict:
    return {"min_eigenvalue": exc.min_eigenvalue, "location": exc.location}


def _history_row(k: int, state: FlowState) -> dict:
    return {"step": k, "t": state.t, **vars(state.diagnostics)}
