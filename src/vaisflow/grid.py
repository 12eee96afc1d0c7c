"""Periodic sampled fields over a foliated chart and the calculus on them.

A chart has 2n transverse real axes (x^1, y^1, ..., x^n, y^n), pairing into
the complex coordinates z^j = x^j + i y^j, and optionally two leafwise axes
(x, y).  Fields are sampled on a uniform periodic grid, stored row-major in
the axis order above.  A field is *basic* when it carries no leaf axes; basic
fields are stored on the transverse grid only and broadcast on demand, which
makes leaf-constancy structural rather than numerical.

All derivative stencils are fourth-order central differences with periodic
wraparound, written in difference form (weighted sums of differences of
samples) so that constant fields are annihilated exactly in floating point.
A first difference is (f(i+1) - f(i-1)) c1/d + (f(i+2) - f(i-2)) c2/d, five
array passes.  A second difference is built from the first differences
D(i) = f(i+1) - f(i) and E(i) = f(i+2) - f(i) as
(D(i) - D(i-1)) c1/d + (E(i) - E(i-2)) c2/d, seven passes.  Each
coefficient c is divided by the stencil's divisor d (h or h^2, with any
power of two a caller folds in) once, when the stencil is bound, so no
pass divides.

One slice engine evaluates them.  It views an array as (outer, N, inner)
with the differentiated axis in the middle; each shifted difference is one
contiguous subtract over the flattened array plus a few small subtracts
that overwrite the wrapped planes, so no shifted copy of the array is ever
made.  A ``_Stencil`` is one such sweep bound to its arrays, with its
views built once; :func:`diff1` and :func:`diff2` bind one and run it.  A
``_Stencil`` can also sweep a large array block by block from a halo of
neighbouring planes.  Every route applies the same operations to the same
operands in the same order, so results are bit-identical whichever route,
block size or output buffer is used.
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
    "integrate",
    "norms",
    "diff1",
    "diff2",
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
        Period lengths for the transverse axes; each > 0 and finite.
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
            if not 0 < p < math.inf:
                raise GridError(f"every period must be positive and finite, got {p}")

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


def _freeze(values, dtype) -> np.ndarray:
    """A read-only C-contiguous copy of ``values`` as ``dtype``."""
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ScalarField:
    """Real-valued sampled function over the grid.

    ``basic`` fields are stored without leaf axes; querying them at any leaf
    coordinate returns the same value by construction.  Values are frozen
    (read-only float64) after construction; complex values raise
    :class:`GridError`.  All operations return new fields.
    """

    spec: GridSpec
    values: np.ndarray
    basic: bool = True

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise GridError("scalar field values must be real")
        object.__setattr__(self, "values", _freeze(self.values, np.float64))
        self._check_shape()

    @classmethod
    def _adopted(cls, spec: GridSpec, values: np.ndarray, basic: bool = True) -> "ScalarField":
        """A field over ``values``, a C-contiguous float64 array that the caller hands over.

        ``values`` is taken without a copy and made read-only, so no one
        writes it again; its shape is checked as in construction.
        """
        field = object.__new__(cls)
        for name, value in (("spec", spec), ("values", values), ("basic", basic)):
            object.__setattr__(field, name, value)
        values.flags.writeable = False
        field._check_shape()
        return field

    def _check_shape(self):
        expected = self.spec.shape(self.basic)
        if self.values.shape != expected:
            raise GridError(
                f"field shape {self.values.shape} does not match spec shape {expected}"
            )

    @classmethod
    def constant(cls, spec: GridSpec, value: float, basic: bool = True) -> "ScalarField":
        return cls(spec, np.full(spec.shape(basic), value), basic)

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


def _check_same_grid(a, b):
    """Raise :class:`GridError` unless fields or forms ``a`` and ``b`` share one spec."""
    if a.spec is not b.spec and a.spec != b.spec:
        raise GridError("fields live on different grids")


def _check_same_layout(a: ScalarField, b: ScalarField):
    _check_same_grid(a, b)
    if a.basic != b.basic:
        raise GridError("cannot combine basic and full fields directly; broadcast first")


# ---------------------------------------------------------------------------
# Stencils.  Difference form: constants drop out exactly, not just to O(eps).
# ---------------------------------------------------------------------------

# The coefficients are read-only 0-d float64 arrays, and so is each one
# divided by a stencil's divisor, bound once: a ufunc takes one without
# converting a Python float on each call.
_C1_NEAR = _freeze(2.0 / 3.0, np.float64)   # first derivative, +-1 neighbours
_C1_FAR = _freeze(-1.0 / 12.0, np.float64)  # first derivative, +-2 neighbours
_C2_NEAR = _freeze(4.0 / 3.0, np.float64)   # second derivative, +-1 neighbours
_C2_FAR = _freeze(-1.0 / 12.0, np.float64)  # second derivative, +-2 neighbours
_MIN_STENCIL_POINTS = 5


class _Plan(NamedTuple):
    """How one shift difference indexes its operands; see :func:`_plan`."""

    src_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    # The steps (flat, src a, src b, out): indices into the flattened arrays
    # when flat is 1, into the 3-D views when it is 0.  A flat step comes first.
    steps: tuple


def _wrapped(offset: int, plane: int, n: int) -> slice:
    """Plane ``plane + offset`` taken modulo ``n``, as a one-plane slice."""
    first = (plane + offset) % n
    return slice(first, first + 1)


@functools.lru_cache(maxsize=128)
def _plan(shape: tuple[int, ...], axis: int, shift: tuple[int, int], pad=None) -> _Plan:
    """The plan of the shift difference f(i + a) - f(i + b) along ``axis``, ``shift`` = (a, b).

    Operands are viewed as (outer, N, inner) with ``axis`` in the middle, so
    each plane of the axis is one contiguous run of ``inner`` elements and a
    shift by k planes is a shift by ``k * inner`` in the flattened array.
    With ``pad`` None the source wraps: one contiguous subtract over the
    flattened arrays covers every plane, and the few planes whose neighbours
    wrap, which that subtract filled from the adjacent outer block, are
    overwritten by one subtract per plane, a strided loop over ``outer``.
    With ``pad`` = (low, high) the source (of shape ``shape``) carries
    ``low`` planes before the output's first and ``high`` after its last,
    and nothing wraps.  The plan holds only index objects, never array data.
    """
    a, b = shift
    outer, n_src, inner = math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:])
    n = n_src if pad is None else n_src - sum(pad)
    every = slice(None)
    if pad is not None:
        at_a, at_b = slice(pad[0] + a, pad[0] + a + n), slice(pad[0] + b, pad[0] + b + n)
        steps = ((0, (every, at_a), (every, at_b), every),)
    else:
        low, high = max(0, -a, -b), max(0, a, b)
        start, stop = low * inner, (outer * n - high) * inner
        flat = (1, slice(start + a * inner, stop + a * inner),
                slice(start + b * inner, stop + b * inner), slice(start, stop))
        steps = (flat,) + tuple(
            (0, (every, _wrapped(a, i, n)), (every, _wrapped(b, i, n)), (every, slice(i, i + 1)))
            for i in (*range(low), *range(n - high, n))
        )
    return _Plan((outer, n_src, inner), (outer, n, inner), steps)


# The operands and their order below are the stencils' contract: every
# caller's result must be bit-identical to every other's, so do not regroup.
# A first difference is
#     out = (f(i+1) - f(i-1)) * (c1/d) + (f(i+2) - f(i-2)) * (c2/d),
# two shift differences and three passes.  A second difference forms
# D(i) = f(i+1) - f(i) and E(i) = f(i+2) - f(i), then
#     out = (D(i) - D(i-1)) * (c1/d) + (E(i) - E(i-2)) * (c2/d),
# four shift differences and three passes.  Each c/d is one coefficient
# divided by the stencil's divisor d (numpy division, so d = 0 gives inf or
# nan, never an exception), bound once as a 0-d array; d is h (first
# difference) or h * h (second) for diff1 and diff2.  A caller may fold an
# exact power of two 2^k into d in place of scaling the result, or a sum of
# results, by 2^-k afterwards.  That is bit-identical, because scaling by 2^k
# commutes with round-to-nearest, except where a value lies within a factor
# 2^k of the subnormal range or a sum overflows only unscaled.
def _scratch(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading elements of the C-contiguous ``buffer``, viewed as ``shape``."""
    size = math.prod(shape)
    if buffer.size < size:
        raise GridError(f"a stencil scratch array needs {size} elements, got {buffer.size}")
    return buffer.reshape(-1)[:size].reshape(shape)


class _Stencil:
    """One stencil sweep bound to its arrays, run by calling it.

    ``order`` 1 is :func:`diff1`, ``order`` 2 is :func:`diff2`, each divided
    by ``divisor``: h or h * h for them, and a caller may fold a power of two
    into it (see the stencils' contract).  ``src`` wraps periodically when
    ``halo`` is 0; otherwise it carries ``halo`` >= 2 extra planes at each
    end of ``axis``, and ``out`` receives the derivative on the planes
    between them.  ``tmp1`` (and, for order 2, ``tmp2``) are scratch, of
    which the stencil uses the leading elements: each holds at least
    ``out``'s elements, and for order 2 with a halo ``tmp1`` one and ``tmp2``
    two more planes of ``axis`` (D and E of the contract reach past the
    output by that much).  Binding builds every view of the sweep once, so
    a call makes only the sweep's ufunc calls.  All arrays are C-contiguous,
    ``axis`` is non-negative and the caller writes the operand into ``src``
    in place between calls.
    """

    __slots__ = ("_args",)

    def __init__(self, order, src, axis, divisor, out, tmp1, tmp2=None, halo=0):
        if 0 < halo < 2:
            raise GridError(f"a halo must hold at least the stencil's 2 planes, got {halo}")
        for a in (src, out, tmp1) if order == 1 else (src, out, tmp1, tmp2):
            if not a.flags.c_contiguous:
                raise GridError("stencil operands must be C-contiguous arrays")

        def reaching(extra):  # out's shape with ``extra`` more planes of ``axis``
            return out.shape[:axis] + (out.shape[axis] + extra,) + out.shape[axis + 1:]

        tmp = _scratch(tmp1, out.shape)
        # (source, shift, the source's (low, high) planes around the target's, target)
        if order == 1:
            c_near, c_far = _C1_NEAR, _C1_FAR
            differences = ((src, (1, -1), (halo, halo), out), (src, (2, -2), (halo, halo), tmp))
        else:
            c_near, c_far = _C2_NEAR, _C2_FAR
            d = _scratch(tmp1, reaching(1 if halo else 0))
            e = _scratch(tmp2, reaching(2 if halo else 0))
            differences = (
                (src, (1, 0), (halo - 1, halo), d), (d, (0, -1), (1, 0), out),
                (src, (2, 0), (halo - 2, halo), e), (e, (0, -2), (2, 0), tmp),
            )
        steps = []
        for source, shift, pad, target in differences:
            plan = _plan(source.shape, axis, shift, pad if halo else None)
            srcs = (source.reshape(plan.src_shape), source.reshape(-1))
            targets = (target.reshape(plan.out_shape), target.reshape(-1))
            steps += [
                (srcs[flat][ia], srcs[flat][ib], targets[flat][io])
                for flat, ia, ib, io in plan.steps
            ]
        near, far = (_freeze(np.divide(c, divisor), np.float64) for c in (c_near, c_far))
        self._args = (steps, out, tmp, near, far)

    def __call__(self) -> None:
        steps, out, tmp, near, far = self._args
        for a, b, difference in steps:
            np.subtract(a, b, out=difference)
        out *= near
        tmp *= far
        out += tmp


def _prepare(values: np.ndarray, axis: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Contiguous operand, normalised axis and a new output array."""
    src = np.ascontiguousarray(values)
    if not -src.ndim <= axis < src.ndim:
        raise GridError(f"axis {axis} out of range for a {src.ndim}-d array")
    axis %= src.ndim
    if src.shape[axis] < _MIN_STENCIL_POINTS:
        raise GridError(
            f"the periodic stencils need at least {_MIN_STENCIL_POINTS} points along an axis, "
            f"got {src.shape[axis]}"
        )
    return src, axis, np.empty(src.shape, dtype=src.dtype)


def diff1(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order periodic first derivative along an array axis."""
    src, axis, out = _prepare(values, axis)
    _Stencil(1, src, axis, h, out, np.empty_like(out))()
    return out


def diff2(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order periodic second derivative along an array axis."""
    src, axis, out = _prepare(values, axis)
    _Stencil(2, src, axis, h * h, out, np.empty_like(out), np.empty_like(out))()
    return out


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
        return ScalarField.zeros(spec)
    h = spec.spacings[axis]
    out = (diff1 if order == 1 else diff2)(f.values, axis, h)
    return ScalarField(spec, out, basic=f.basic)


class FieldNorms(NamedTuple):
    sup_norm: float
    l2_norm: float
    mean: float


def integrate(f: ScalarField) -> float:
    """Integral of a field over its own axes (periodic midpoint rule)."""
    return float(np.sum(f.values)) * f.spec.cell_volume(f.basic)


def norms(f: ScalarField) -> FieldNorms:
    """Sup norm over grid points, integral L2 norm, and mean value."""
    sup = float(np.max(np.abs(f.values))) if f.values.size else 0.0
    vol = f.spec.cell_volume(f.basic)
    l2 = float(np.sqrt(np.sum(f.values ** 2) * vol))
    return FieldNorms(sup, l2, float(np.mean(f.values)))
