"""Periodic sampled fields over a foliated chart and the calculus on them.

A chart has 2n transverse real axes (x^1, y^1, ..., x^n, y^n), pairing into
the complex coordinates z^j = x^j + i y^j, and optionally two leafwise axes
(x, y).  Fields are sampled on a uniform periodic grid, stored row-major in
the axis order above.  A field is *basic* when it carries no leaf axes; basic
fields are stored on the transverse grid only and broadcast on demand, which
makes leaf-constancy structural rather than numerical.

All derivative stencils are fourth-order central differences with periodic
wraparound, written in difference form (weighted sums of f(i+k) - f(i)) so
that constant fields are annihilated exactly in floating point.

One slice engine evaluates them.  It views an array as (outer, N, inner)
with the differentiated axis in the middle; each shifted difference is one
contiguous subtract over the flattened array plus one subtract that
overwrites the few wrapped planes, so no shifted copy of the array is ever
made.  :func:`diff1` and :func:`diff2` accept an ``out=`` array, and
:func:`diff2_into` also takes the caller's scratch arrays and can sweep a
large array block by block from a halo of neighbouring planes.  Every route
applies the same operations to the same operands in the same order, so
results are bit-identical whichever route, block size or output buffer is
used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import GridError

__all__ = [
    "GridSpec",
    "ScalarField",
    "FieldNorms",
    "fd_derivative",
    "wirtinger",
    "integrate",
    "norms",
    "diff1",
    "diff2",
    "diff2_into",
]

_MIN_RESOLUTION = 8


@dataclass(frozen=True)
class GridSpec:
    """Discretization of one foliated chart.

    Parameters
    ----------
    n : int
        Complex transverse dimension (n >= 1).
    transverse_resolution : tuple of int
        Point counts for the 2n transverse axes; each >= 8 and even.
    transverse_periods : tuple of float
        Period lengths for the transverse axes; each > 0.
    leaf_resolution, leaf_periods : optional pairs
        Present together for a "full" spec with the two leaf axes (x, y);
        absent for a basic-only spec.
    """

    n: int
    transverse_resolution: tuple[int, ...]
    transverse_periods: tuple[float, ...]
    leaf_resolution: tuple[int, int] | None = None
    leaf_periods: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "transverse_resolution", tuple(int(r) for r in self.transverse_resolution))
        object.__setattr__(self, "transverse_periods", tuple(float(p) for p in self.transverse_periods))
        if self.leaf_resolution is not None:
            object.__setattr__(self, "leaf_resolution", tuple(int(r) for r in self.leaf_resolution))
        if self.leaf_periods is not None:
            object.__setattr__(self, "leaf_periods", tuple(float(p) for p in self.leaf_periods))
        if self.n < 1:
            raise GridError(f"transverse complex dimension must be >= 1, got n={self.n}")
        if len(self.transverse_resolution) != 2 * self.n:
            raise GridError(
                f"expected {2 * self.n} transverse resolutions, got {len(self.transverse_resolution)}"
            )
        if len(self.transverse_periods) != 2 * self.n:
            raise GridError(
                f"expected {2 * self.n} transverse periods, got {len(self.transverse_periods)}"
            )
        if (self.leaf_resolution is None) != (self.leaf_periods is None):
            raise GridError("leaf_resolution and leaf_periods must be given together")
        if self.leaf_resolution is not None and (
            len(self.leaf_resolution) != 2 or len(self.leaf_periods) != 2
        ):
            raise GridError("leaf axes come as an (x, y) pair")
        for r in self.resolutions:
            if r < _MIN_RESOLUTION or r % 2 != 0:
                raise GridError(f"every resolution must be even and >= {_MIN_RESOLUTION}, got {r}")
        for p in self.periods:
            if not p > 0:
                raise GridError(f"every period must be positive, got {p}")

    @property
    def has_leaf(self) -> bool:
        return self.leaf_resolution is not None

    @property
    def num_axes(self) -> int:
        """Number of axes when leaf axes are counted (2n or 2n + 2)."""
        return 2 * self.n + (2 if self.has_leaf else 0)

    @property
    def num_transverse_axes(self) -> int:
        return 2 * self.n

    @property
    def resolutions(self) -> tuple[int, ...]:
        if self.has_leaf:
            return self.transverse_resolution + self.leaf_resolution
        return self.transverse_resolution

    @property
    def periods(self) -> tuple[float, ...]:
        if self.has_leaf:
            return self.transverse_periods + self.leaf_periods
        return self.transverse_periods

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(p / r for p, r in zip(self.periods, self.resolutions))

    @property
    def transverse_shape(self) -> tuple[int, ...]:
        return self.transverse_resolution

    @property
    def full_shape(self) -> tuple[int, ...]:
        return self.resolutions

    def shape(self, basic: bool) -> tuple[int, ...]:
        if basic:
            return self.transverse_shape
        if not self.has_leaf:
            raise GridError("spec has no leaf axes; only basic fields exist on it")
        return self.full_shape

    def is_leaf_axis(self, axis: int) -> bool:
        if not 0 <= axis < self.num_axes:
            raise GridError(f"axis {axis} out of range for a spec with {self.num_axes} axes")
        return axis >= 2 * self.n

    def coordinate(self, axis: int) -> np.ndarray:
        """1-D array of sample coordinates along ``axis`` (0, h, ..., L - h)."""
        if not 0 <= axis < self.num_axes:
            raise GridError(f"axis {axis} out of range for a spec with {self.num_axes} axes")
        r = self.resolutions[axis]
        return np.arange(r) * (self.periods[axis] / r)

    def coordinate_mesh(self, axis: int, basic: bool = True) -> np.ndarray:
        """Coordinate of ``axis`` broadcast against the basic or full shape."""
        if basic and self.is_leaf_axis(axis):
            raise GridError("a basic field has no leaf coordinates")
        naxes = self.num_transverse_axes if basic else self.num_axes
        shape = [1] * naxes
        shape[axis] = self.resolutions[axis]
        return self.coordinate(axis).reshape(shape)

    def cell_volume(self, basic: bool) -> float:
        hs = self.spacings
        if basic:
            hs = hs[: 2 * self.n]
        return float(np.prod(hs))

    def basic_only(self) -> "GridSpec":
        """The same transverse discretization without leaf axes."""
        return GridSpec(self.n, self.transverse_resolution, self.transverse_periods)


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values)
    if out.dtype not in (np.float64, np.complex128):
        out = out.astype(np.complex128 if np.iscomplexobj(out) else np.float64)
    out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ScalarField:
    """Real- or complex-valued sampled function over the grid.

    ``basic`` fields are stored without leaf axes; querying them at any leaf
    coordinate returns the same value by construction.  Values are frozen
    (read-only) after construction; all operations return new fields.
    """

    spec: GridSpec
    values: np.ndarray
    basic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        expected = self.spec.shape(self.basic)
        if self.values.shape != expected:
            raise GridError(
                f"field shape {self.values.shape} does not match spec shape {expected}"
            )

    @classmethod
    def constant(cls, spec: GridSpec, value: float | complex, basic: bool = True) -> "ScalarField":
        dtype = np.complex128 if isinstance(value, complex) else np.float64
        return cls(spec, np.full(spec.shape(basic), value, dtype=dtype), basic)

    @classmethod
    def zeros(cls, spec: GridSpec, basic: bool = True) -> "ScalarField":
        return cls(spec, np.zeros(spec.shape(basic)), basic)

    @classmethod
    def from_function(
        cls, spec: GridSpec, fn: Callable[..., np.ndarray], basic: bool = True
    ) -> "ScalarField":
        """Sample ``fn(*coords)`` where coords are broadcastable axis meshes."""
        naxes = spec.num_transverse_axes if basic else spec.num_axes
        coords = [spec.coordinate_mesh(a, basic) for a in range(naxes)]
        vals = np.broadcast_to(fn(*coords), spec.shape(basic))
        return cls(spec, np.array(vals), basic)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def as_full_values(self) -> np.ndarray:
        """Values broadcast over the leaf axes (read-only view for basic fields)."""
        if not self.basic:
            return self.values
        if not self.spec.has_leaf:
            return self.values
        target = self.spec.full_shape
        return np.broadcast_to(self.values.reshape(self.values.shape + (1, 1)), target)

    def with_values(self, values: np.ndarray, basic: bool | None = None) -> "ScalarField":
        return ScalarField(self.spec, values, self.basic if basic is None else basic)

    def __add__(self, other):
        if isinstance(other, ScalarField):
            _check_same_layout(self, other)
            return self.with_values(self.values + other.values)
        return self.with_values(self.values + other)

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            _check_same_layout(self, other)
            return self.with_values(self.values - other.values)
        return self.with_values(self.values - other)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _check_same_layout(self, other)
            return self.with_values(self.values * other.values)
        return self.with_values(self.values * other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_values(-self.values)

    def conj(self) -> "ScalarField":
        return self.with_values(np.conj(self.values))


def _check_same_layout(a: ScalarField, b: ScalarField):
    if a.spec is not b.spec and a.spec != b.spec:
        raise GridError("fields live on different grids")
    if a.basic != b.basic:
        raise GridError("cannot combine basic and full fields directly; broadcast first")


# ---------------------------------------------------------------------------
# Stencils.  Difference form: constants drop out exactly, not just to O(eps).
# ---------------------------------------------------------------------------

_C1_NEAR = 2.0 / 3.0   # first derivative, +-1 neighbours
_C1_FAR = -1.0 / 12.0  # first derivative, +-2 neighbours
_C2_NEAR = 4.0 / 3.0   # second derivative, +-1 neighbours
_C2_FAR = -1.0 / 12.0  # second derivative, +-2 neighbours
_MIN_STENCIL_POINTS = 5


class _Plan(NamedTuple):
    """How one stencil sweep indexes its operands; see :func:`_plan`."""

    src_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    # (a, b) -> slices (src a, src b, out) of the flattened arrays, or None
    flat: dict
    # (a, b) -> tuple of index pairs (src a, src b, out) into the 3-D views
    planes: dict


# The (a, b) pairs of f(i + a) - f(i + b) that the two stencils use.
_SHIFTS = ((1, -1), (2, -2), (1, 0), (-1, 0), (2, 0), (-2, 0))


def _wrapped(offset: int, start: int, stop: int, n: int) -> slice:
    """Planes ``start + offset .. stop - 1 + offset`` taken modulo ``n`` (no crossing)."""
    first = (start + offset) % n
    return slice(first, first + stop - start)


@functools.lru_cache(maxsize=64)
def _plan(shape: tuple[int, ...], axis: int, halo: int) -> _Plan:
    """The plan of every shift difference f(i + a) - f(i + b) along ``axis``.

    Operands are viewed as (outer, N, inner) with ``axis`` in the middle, so
    each plane of the axis is one contiguous run of ``inner`` elements and a
    shift by k planes is a shift by ``k * inner`` in the flattened array.
    One contiguous subtract over the flattened arrays then covers every
    plane; the few planes whose neighbours wrap, which that subtract filled
    from the adjacent outer block, are overwritten by one subtract at each
    end of the axis.  With ``halo > 0`` the source carries ``halo`` extra
    planes at both ends of the axis (``shape`` is the source's shape) and
    nothing wraps.  The plan holds only index objects, never array data.
    """
    outer, n_src, inner = math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:])
    n = n_src - 2 * halo
    every = slice(None)
    flat, planes = {}, {}
    for a, b in _SHIFTS:
        if halo:
            flat[a, b] = None
            planes[a, b] = (
                ((every, slice(halo + a, halo + a + n)), (every, slice(halo + b, halo + b + n)), every),
            )
            continue
        low, high = max(0, -a, -b), max(0, a, b)
        start, stop = low * inner, (outer * n - high) * inner
        flat[a, b] = (
            slice(start + a * inner, stop + a * inner),
            slice(start + b * inner, stop + b * inner),
            slice(start, stop),
        )
        planes[a, b] = tuple(
            ((every, _wrapped(a, i0, i1, n)), (every, _wrapped(b, i0, i1, n)), (every, slice(i0, i1)))
            for i0, i1 in ((0, low), (n - high, n))
            if i1 > i0
        )
    return _Plan((outer, n_src, inner), (outer, n, inner), flat, planes)


def _shift_diff(plan: _Plan, src: np.ndarray, a: int, b: int, out: np.ndarray) -> None:
    """out = f(i + a) - f(i + b) along the plan's axis, for contiguous ``src`` and ``out``."""
    indices = plan.flat[a, b]
    if indices is not None:
        ia, ib, io = indices
        flat_src = src.reshape(-1)
        np.subtract(flat_src[ia], flat_src[ib], out=out.reshape(-1)[io])
    src3, out3 = src.reshape(plan.src_shape), out.reshape(plan.out_shape)
    for ia, ib, io in plan.planes[a, b]:
        np.subtract(src3[ia], src3[ib], out=out3[io])


# The operands and their order below are the stencils' contract: every
# caller's result must be bit-identical to every other's, so do not regroup.
def _first_difference(plan, src, out, tmp, h):
    _shift_diff(plan, src, 1, -1, out)
    _shift_diff(plan, src, 2, -2, tmp)
    out *= _C1_NEAR
    tmp *= _C1_FAR
    out += tmp
    out /= h


def _second_difference(plan, src, out, tmp1, tmp2, h):
    _shift_diff(plan, src, 1, 0, out)
    _shift_diff(plan, src, -1, 0, tmp1)
    out += tmp1
    _shift_diff(plan, src, 2, 0, tmp1)
    _shift_diff(plan, src, -2, 0, tmp2)
    tmp1 += tmp2
    out *= _C2_NEAR
    tmp1 *= _C2_FAR
    out += tmp1
    out /= h * h


def _prepare(values: np.ndarray, axis: int, out: np.ndarray | None) -> tuple[np.ndarray, int, np.ndarray]:
    """Contiguous operand, normalised axis and a checked (or new) output array."""
    src = np.ascontiguousarray(values)
    if not -src.ndim <= axis < src.ndim:
        raise GridError(f"axis {axis} out of range for a {src.ndim}-d array")
    axis %= src.ndim
    if src.shape[axis] < _MIN_STENCIL_POINTS:
        raise GridError(
            f"the periodic stencils need at least {_MIN_STENCIL_POINTS} points along an axis, "
            f"got {src.shape[axis]}"
        )
    if out is None:
        return src, axis, np.empty(src.shape, dtype=src.dtype)
    if out.shape != src.shape or not out.flags.c_contiguous:
        raise GridError("out must be a C-contiguous array of the input's shape")
    if np.may_share_memory(out, values):
        raise GridError("out must not overlap the input")
    return src, axis, out


def diff1(values: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order periodic first derivative along an array axis.

    The result is written into ``out`` when it is given (a C-contiguous
    array of the input's shape that does not overlap it) and returned.
    """
    src, axis, out = _prepare(values, axis, out)
    _first_difference(_plan(src.shape, axis, 0), src, out, np.empty_like(out), h)
    return out


def diff2(values: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Fourth-order periodic second derivative along an array axis.

    ``out`` works as in :func:`diff1`.
    """
    src, axis, out = _prepare(values, axis, out)
    diff2_into(src, axis, h, out, np.empty_like(out), np.empty_like(out))
    return out


def diff2_into(
    values: np.ndarray,
    axis: int,
    h: float,
    out: np.ndarray,
    tmp1: np.ndarray,
    tmp2: np.ndarray,
    halo: int = 0,
) -> None:
    """:func:`diff2` into ``out`` with caller-owned scratch arrays ``tmp1``, ``tmp2``.

    All arrays are C-contiguous and ``axis`` is non-negative.  With
    ``halo == 0`` ``values`` has the shape of ``out`` and wraps periodically.
    With ``halo >= 2`` ``values`` carries ``halo`` extra planes at each end of
    ``axis`` and ``out`` receives the derivative on the planes between them,
    so a caller can sweep a large array in cache-sized blocks.
    """
    if 0 < halo < 2:
        raise GridError(f"a halo must hold at least the stencil's 2 planes, got {halo}")
    for a in (values, out, tmp1, tmp2):
        if not a.flags.c_contiguous:
            raise GridError("stencil operands must be C-contiguous arrays")
    _second_difference(_plan(values.shape, axis, halo), values, out, tmp1, tmp2, h)


def fd_derivative(f: ScalarField, axis: int, order: int = 1) -> ScalarField:
    """Periodic central-difference derivative of ``f`` along a chart axis.

    ``axis`` indexes the chart axis order (x^1, y^1, ..., x^n, y^n, x, y).
    Leaf-axis derivatives of basic fields are exactly zero (the field has no
    leaf dependence by construction).

    Parameters
    ----------
    f : ScalarField
    axis : int
        Chart axis, 0-based.
    order : {1, 2}
        Derivative order.
    """
    spec = f.spec
    if not 0 <= axis < spec.num_axes:
        raise GridError(f"axis {axis} out of range for a spec with {spec.num_axes} axes")
    if order not in (1, 2):
        raise GridError(f"derivative order must be 1 or 2, got {order}")
    if f.basic and spec.is_leaf_axis(axis):
        zeros = np.zeros(spec.transverse_shape, dtype=f.values.dtype)
        return ScalarField(spec, zeros, basic=True)
    h = spec.spacings[axis]
    out = (diff1 if order == 1 else diff2)(f.values, axis, h)
    return ScalarField(spec, out, basic=f.basic)


def wirtinger(f: ScalarField, j: int, conjugate: bool = False) -> ScalarField:
    """Wirtinger derivative d/dz^j (or d/dzbar^j) of ``f``.

    Implements d/dz^j = (d/dx^j - i d/dy^j)/2 and its conjugate counterpart,
    with ``j`` 1-based to match the coordinate labels z^1 ... z^n.
    """
    n = f.spec.n
    if not 1 <= j <= n:
        raise GridError(f"complex index j={j} out of range 1..{n}")
    ax = 2 * (j - 1)
    ay = ax + 1
    hx = f.spec.spacings[ax]
    hy = f.spec.spacings[ay]
    dx = diff1(f.values, ax, hx)
    dy = diff1(f.values, ay, hy)
    sign = 1.0 if conjugate else -1.0
    return ScalarField(f.spec, 0.5 * (dx + sign * 1j * dy), basic=f.basic)


class FieldNorms(NamedTuple):
    sup_norm: float
    l2_norm: float
    mean: float


def integrate(f: ScalarField) -> float:
    """Integral of a real field over its own axes (periodic midpoint rule)."""
    if f.is_complex:
        raise GridError("integrate expects a real-valued field")
    return float(np.sum(f.values)) * f.spec.cell_volume(f.basic)


def norms(f: ScalarField) -> FieldNorms:
    """Sup norm over grid points, integral L2 norm, and mean value."""
    sup = float(np.max(np.abs(f.values))) if f.values.size else 0.0
    vol = f.spec.cell_volume(f.basic)
    l2 = float(np.sqrt(np.sum(np.abs(f.values) ** 2) * vol))
    mean = complex(np.mean(f.values))
    return FieldNorms(sup, l2, mean.real if not f.is_complex else mean)
