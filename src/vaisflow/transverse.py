"""Transverse Kahler quantities: metric from potential, Ricci, the connection trace.

Conventions
-----------
The transverse metric is carried as the Hermitian coefficient matrix
g_{j kbar} of the (1,1) form in the frame dz^j (x) dzbar^k.  The Ricci
coefficients are

    R_{j kbar} = - d^2/dz^j dzbar^k  log det(g),

and the scalar-curvature convention used throughout the package is the
real-dimension one, s = 2 g^{j kbar} R_{j kbar}.

The coefficient matrix of i del_b delbar_b f (``ddbar``) uses the direct
fourth-order second-derivative stencil on the diagonal and composed
first-derivative stencils off the diagonal, whose real and imaginary parts
are taken with real stencils only.  The two routes agree to fourth order;
keeping them distinct is what gives the structure-identity residuals
elsewhere in the package their genuine O(h^4) content.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .exceptions import (
    GridError,
    NonPositiveDeterminant,
    PositivityLost,
    SingularMetric,
)
from .grid import GridSpec, ScalarField, _check_same_grid, _freeze, _Stencil, diff1

__all__ = [
    "HermitianField",
    "EPS_POSITIVITY",
    "ddbar",
    "metric_from_potential",
    "log_det",
    "ricci",
    "ricci_difference_check",
    "scalar_curvature",
]

EPS_POSITIVITY = 1e-10

_HERMITICITY_TOL = 1e-12
_CONDITION_WARN = 1e8


@dataclass(frozen=True)
class HermitianField:
    """One n x n Hermitian matrix per grid point.

    Basic fields are stored on the transverse grid; full fields (which arise
    from the leafwise-extended Hesse coefficients of non-basic functions)
    carry the leaf axes as leading dimensions like :class:`ScalarField`.
    Entries must be finite and Hermitian to within 1e-12 of the largest
    entry (or of 1); otherwise construction raises :class:`GridError`.
    """

    spec: GridSpec
    matrices: np.ndarray
    basic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "matrices", _freeze(self.matrices, np.complex128))
        self._check_shape_and_finite()
        _check_hermitian(self.matrices)

    @classmethod
    def _assembled(cls, spec: GridSpec, matrices: np.ndarray, basic: bool = True) -> "HermitianField":
        """A field of ``matrices`` that are Hermitian by construction.

        ``matrices`` is a C-contiguous complex128 array that the caller
        hands over, such as one from :func:`_assemble` or an existing
        field's.  It is taken without a copy and made read-only.  Shape and
        finiteness are checked as in construction; the hermiticity scan is
        skipped.
        """
        field = object.__new__(cls)
        for name, value in (("spec", spec), ("matrices", matrices), ("basic", basic)):
            object.__setattr__(field, name, value)
        matrices.flags.writeable = False
        field._check_shape_and_finite()
        return field

    def _check_shape_and_finite(self):
        n = self.spec.n
        expected = self.spec.shape(self.basic) + (n, n)
        if self.matrices.shape != expected:
            raise GridError(
                f"matrix field shape {self.matrices.shape} does not match {expected}"
            )
        if not np.all(np.isfinite(self.matrices)):
            raise GridError("matrix entries must be finite")

    @classmethod
    def identity(cls, spec: GridSpec, basic: bool = True) -> "HermitianField":
        return cls.constant(spec, np.eye(spec.n), basic)

    @classmethod
    def constant(cls, spec: GridSpec, matrix: np.ndarray, basic: bool = True) -> "HermitianField":
        """``matrix`` at every point, checked once: finite and Hermitian, as in construction."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (spec.n, spec.n):
            raise GridError(f"expected an {spec.n} x {spec.n} matrix")
        if not np.all(np.isfinite(matrix)):
            raise GridError("matrix entries must be finite")
        _check_hermitian(matrix)
        values = np.broadcast_to(matrix, spec.shape(basic) + matrix.shape)
        return cls._assembled(spec, np.array(values, order="C"), basic)

    @classmethod
    def zeros(cls, spec: GridSpec, basic: bool = True) -> "HermitianField":
        n = spec.n
        return cls._assembled(spec, np.zeros(spec.shape(basic) + (n, n), dtype=np.complex128), basic)

    def checked_positive(self) -> "HermitianField":
        """Return the field itself when it is positive, or raise :class:`PositivityLost`.

        Positive means every lowest eigenvalue exceeds :data:`EPS_POSITIVITY`.
        """
        _check_floor(_spectrum(self.matrices, self.spec.n)[0], EPS_POSITIVITY)
        return self

    def scaled(self, c: float) -> "HermitianField":
        return HermitianField(self.spec, c * self.matrices, self.basic)

    def __add__(self, other: "HermitianField") -> "HermitianField":
        _check_same_grid(self, other)
        if self.basic != other.basic:
            raise GridError("cannot add a basic and a full Hermitian field")
        return HermitianField(self.spec, self.matrices + other.matrices, self.basic)

    def __sub__(self, other: "HermitianField") -> "HermitianField":
        return self + other.scaled(-1.0)


def hermiticity_defect(matrices: np.ndarray) -> float:
    """max |A - A^H| over all grid points and entries.

    Only the diagonal and upper triangle are formed: |a - conj(b)| equals
    |b - conj(a)| bit for bit, so the lower triangle repeats their values.
    """
    return float(np.max([
        np.max(np.abs(matrices[..., i, i:] - np.conj(matrices[..., i:, i])))
        for i in range(matrices.shape[-1])
    ]))


def _check_hermitian(matrices: np.ndarray) -> None:
    """Raise :class:`GridError` unless ``matrices`` are Hermitian to within 1e-12 of max(1, |entry|)."""
    defect = hermiticity_defect(matrices)
    if defect > _HERMITICITY_TOL * max(1.0, float(np.max(np.abs(matrices)))):
        raise GridError(f"matrices are not Hermitian (defect {defect:.3e})")


def _spectrum(matrices: np.ndarray, n: int, floor: float | None = None):
    """(lambda_min, lambda_max, log det) per point of n x n Hermitian ``matrices``.

    n = 1 reads the entry.  n = 2 reads the parts of the entries into
    :func:`_spectrum_2x2`.  n >= 3 keeps LAPACK's eigvalsh, since analytic
    3 x 3 eigenvalues lose accuracy.

    log det is taken only when ``floor`` is given and every lambda_min
    exceeds it; otherwise it is None, and no log of a non-positive value
    is ever formed.  For n = 1 both eigenvalue arrays are the entry itself.
    """
    if n == 2:
        a, d, b = matrices[..., 0, 0].real, matrices[..., 1, 1].real, matrices[..., 0, 1]
        return _spectrum_2x2(a, d, b.real, b.imag, floor)
    if n == 1:
        lows = highs = matrices[..., 0, 0].real
    else:
        w = np.linalg.eigvalsh(matrices)
        lows, highs = w[..., 0], w[..., -1]
    if not _clears(lows, floor):
        return lows, highs, None
    return lows, highs, np.log(lows) if n == 1 else np.sum(np.log(w), axis=-1)


def _spectrum_2x2(a, d, b_re, b_im, floor: float | None = None):
    """:func:`_spectrum` of the 2 x 2 Hermitian matrices [[a, b], [conj(b), d]], b = b_re + i b_im.

    The closed form: det = a d - |b|^2,
    lambda_max = (a + d)/2 + hypot((a - d)/2, |b|) and
    lambda_min = det / lambda_max, which keeps the small eigenvalue of a
    near-singular metric accurate (or (a + d)/2 - hypot(...) where
    lambda_max <= 0, without cancellation there).
    """
    bb = b_re * b_re + b_im * b_im
    det = a * d - bb
    half_trace = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), np.sqrt(bb))
    highs = half_trace + radius
    lows = half_trace - radius
    np.divide(det, highs, out=lows, where=highs > 0)
    if not _clears(lows, floor):
        return lows, highs, None
    return lows, highs, np.log(det)


def _clears(lows: np.ndarray, floor: float | None) -> bool:
    """Whether a ``floor`` is given and every one of ``lows`` exceeds it."""
    return floor is not None and float(np.min(lows)) > floor


def _argmin_location(values: np.ndarray) -> tuple[int, ...]:
    """The grid index of the smallest of ``values``, one per grid point."""
    return tuple(int(i) for i in np.unravel_index(np.argmin(values), values.shape))


def _check_floor(values: np.ndarray, floor: float) -> None:
    """Raise :class:`PositivityLost` unless every one of ``values`` exceeds ``floor``.

    ``values`` holds one lowest eigenvalue per grid point; the error carries
    their minimum and its grid index as ``location``.
    """
    lo = float(np.min(values))
    if not lo > floor:
        loc = _argmin_location(values)
        raise PositivityLost(
            f"minimum eigenvalue {lo:.6e} <= {floor:.1e} at grid index {loc}",
            min_eigenvalue=lo,
            location=loc,
        )


def ddbar(f: ScalarField) -> HermitianField:
    """Coefficient matrix f_{j kbar} of i del_b delbar_b f.

    For full (non-basic) ``f`` the transverse stencils act slice by slice at
    fixed leaf coordinates, extending the operator to functions that vary
    along the leaves; the result is then a full Hermitian field.
    """
    return HermitianField._assembled(f.spec, _ddbar_matrices(f.values, f.spec), basic=f.basic)


def _ddbar_program(
    src: np.ndarray, halo: int, hs: tuple[float, ...], parts: np.ndarray, temps: list
) -> Callable[[], None]:
    """ddbar of ``src`` into ``parts`` (laid out as by :func:`_ddbar_parts`), as one callable.

    ``src`` carries ``halo`` extra axis-0 planes at each end (with none it
    wraps); ``temps`` are three C-contiguous arrays of ``parts[j, k]``'s
    shape, of which, with a halo, the second holds one and the third two
    more axis-0 planes (the scratch of a halo :class:`grid._Stencil`), and,
    for n >= 2, three of ``src``'s.  A mixed part takes first
    differences along the k axes on every plane of ``src``, then along the
    j axes, so any halo gives the same operations in the same order.  The
    factor 1/4 of every part is folded into the divisors of the stencils
    whose results are summed, 4 h^2 and 4 h, bit-identical to scaling the
    sum (see the stencils' contract in :mod:`grid`).
    """
    n = parts.shape[0]
    tmp, tmp1, tmp2 = temps[:3]
    steps = []

    def quarter(order, operand, axis, out):
        """The stencil of ``order`` along ``axis``, divided by 4 h^order."""
        h = hs[axis]
        divisor = 4.0 * (h if order == 1 else h * h)
        if halo and axis == 0:
            return _Stencil(order, operand, 0, divisor, out, tmp1, tmp2, halo)
        return _Stencil(order, operand[halo:len(operand) - halo], axis, divisor, out, tmp1, tmp2)

    def combine(op, part):  # part op= tmp
        steps.append(partial(op, part, tmp, part))

    for k in range(n):
        kx, ky = 2 * k, 2 * k + 1
        steps += quarter(2, src, kx, parts[k, k]), quarter(2, src, ky, tmp)
        combine(np.add, parts[k, k])
        if k == 0:
            continue
        f_x, f_y, scratch = temps[3:]
        steps += _Stencil(1, src, kx, hs[kx], f_x, scratch), _Stencil(1, src, ky, hs[ky], f_y, scratch)
        for j in range(k):
            jx, jy = 2 * j, 2 * j + 1
            steps += quarter(1, f_x, jx, parts[j, k]), quarter(1, f_y, jy, tmp)
            combine(np.add, parts[j, k])
            steps += quarter(1, f_y, jx, parts[k, j]), quarter(1, f_x, jy, tmp)
            combine(np.subtract, parts[k, j])

    def program() -> None:
        for run in steps:
            run()

    return program


def _ddbar_parts(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The parts of the coefficients f_{j kbar} of :func:`ddbar` for a raw real array.

    Returns a real array of shape (n, n) + ``values.shape``: part [j, j] is
    f_{j jbar} = (f_{x_j x_j} + f_{y_j y_j}) / 4, and for j < k part [j, k]
    is Re f_{j kbar} = (f_{x_j x_k} + f_{y_j y_k}) / 4 and part [k, j] is
    Im f_{j kbar} = (f_{x_j y_k} - f_{y_j x_k}) / 4.  It is
    :func:`_ddbar_program` run once on the whole grid.
    """
    n = spec.n
    src = np.ascontiguousarray(values)
    parts = np.empty((n, n) + src.shape)
    temps = [np.empty(src.shape) for _ in range(3 if n == 1 else 6)]
    _ddbar_program(src, 0, spec.spacings, parts, temps)()
    return parts


def _parts(matrices: np.ndarray) -> np.ndarray:
    """The parts, laid out as by :func:`_ddbar_parts`, of Hermitian ``matrices``."""
    n = matrices.shape[-1]
    parts = np.empty((n, n) + matrices.shape[:-2])
    for j in range(n):
        parts[j, j] = matrices[..., j, j].real
        for k in range(j + 1, n):
            parts[j, k] = matrices[..., j, k].real
            parts[k, j] = matrices[..., j, k].imag
    return parts


def _assemble(parts: np.ndarray) -> np.ndarray:
    """The Hermitian matrices of ``parts``; the lower triangle is the exact conjugate of the upper.

    For n >= 2 the real and imaginary planes are filled contiguously and
    moved into the matrices with one transposing copy, which is about twice
    as fast as writing each strided plane in place; for n = 1 the strided
    writes are faster.
    """
    n = parts.shape[0]
    grid = parts.shape[2:]
    out = np.empty(grid + (n, n), dtype=np.complex128)
    if n == 1:
        out.real[..., 0, 0] = parts[0, 0]
        out.imag[..., 0, 0] = 0.0
        return out
    planes = np.empty((n, n, 2) + grid)
    for j in range(n):
        planes[j, j, 0] = parts[j, j]
        planes[j, j, 1] = 0.0
        for k in range(j + 1, n):
            planes[j, k, 0] = planes[k, j, 0] = parts[j, k]
            planes[j, k, 1] = parts[k, j]
            np.negative(parts[k, j], out=planes[k, j, 1])
    out.view(np.float64).reshape(grid + (n, n, 2))[...] = np.moveaxis(planes, (0, 1, 2), (-3, -2, -1))
    return out


def _ddbar_matrices(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The coefficient matrices of :func:`ddbar` for a raw real array."""
    return _assemble(_ddbar_parts(values, spec))


def _metric_with_ddbar(
    spec: GridSpec, base: np.ndarray, values: np.ndarray, basic: bool, base_basic: bool = True
) -> HermitianField:
    """The field of ``base`` + ddbar(``values``), summed part by part and assembled once.

    ``base`` holds Hermitian matrices and ``values`` a raw real array;
    ``basic`` and ``base_basic`` say which of the two is basic, and a basic
    operand is broadcast over the leaf axes of a full one.  The matrices are
    Hermitian by construction and their parts are exactly the sums, so they
    reload from a snapshot bit for bit.
    """
    total, other = _ddbar_parts(values, spec), _parts(base)
    if basic != base_basic:
        if basic:
            total, other = other, total
        other = other.reshape(other.shape + (1, 1))
    total += other
    return HermitianField._assembled(spec, _assemble(total), basic=basic and base_basic)


def metric_from_potential(h: ScalarField, base: HermitianField) -> HermitianField:
    """g_{j kbar} = base_{j kbar} + d^2 h / dz^j dzbar^k, checked positive."""
    if not h.basic:
        raise GridError("the transverse potential must be basic")
    return _metric_with_ddbar(h.spec, base.matrices, h.values, True, base.basic).checked_positive()


def _log_det_values(matrices: np.ndarray, n: int) -> np.ndarray:
    """log det per point; :class:`NonPositiveDeterminant` unless every matrix is positive."""
    ld = _spectrum(matrices, n, floor=0.0)[2]
    if ld is None:
        raise NonPositiveDeterminant("determinant is not positive everywhere")
    return ld


def _checked_log_det(g: HermitianField) -> np.ndarray:
    """log det per point of ``g``, from the one spectrum that also checks it positive.

    As in :meth:`HermitianField.checked_positive`, a lowest eigenvalue at or
    below :data:`EPS_POSITIVITY` raises :class:`PositivityLost`, located,
    and no log is taken.
    """
    lows, _, ld = _spectrum(g.matrices, g.spec.n, EPS_POSITIVITY)
    _check_floor(lows, EPS_POSITIVITY)
    return ld


def log_det(g: HermitianField) -> ScalarField:
    """Pointwise log det of a positive Hermitian field."""
    return ScalarField(g.spec, _log_det_values(g.matrices, g.spec.n), basic=g.basic)


def ricci(g: HermitianField) -> HermitianField:
    """Transverse Ricci coefficients R_{j kbar} = -(log det g)_{j kbar}."""
    r = _ddbar_matrices(_log_det_values(g.matrices, g.spec.n), g.spec)
    return HermitianField._assembled(g.spec, np.negative(r, out=r), basic=g.basic)


def _d_z(values: np.ndarray, j: int, spec: GridSpec) -> np.ndarray:
    """d/dz^j on a raw array (j 0-based here; internal helper)."""
    ax, ay = 2 * j, 2 * j + 1
    hs = spec.spacings
    return 0.5 * (diff1(values, ax, hs[ax]) - 1j * diff1(values, ay, hs[ay]))


def _d_zbar(values: np.ndarray, k: int, spec: GridSpec) -> np.ndarray:
    ax, ay = 2 * k, 2 * k + 1
    hs = spec.spacings
    return 0.5 * (diff1(values, ax, hs[ax]) + 1j * diff1(values, ay, hs[ay]))


def _inverse(g: HermitianField) -> np.ndarray:
    mats = g.matrices
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError as exc:
        bad = _argmin_location(_spectrum(mats, g.spec.n)[0])
        raise SingularMetric(f"metric matrix is singular near grid index {bad}") from exc
    cond = float(np.max(np.linalg.norm(mats, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))))
    if cond > _CONDITION_WARN:
        warnings.warn(f"metric condition number {cond:.3e} exceeds {_CONDITION_WARN:.0e}")
    return inv


def connection_trace(g: HermitianField) -> np.ndarray:
    """tr_k Gamma^k_{j k} = tr(g^{-1} d_j g), shape ``grid + (n,)``.

    Equals d log det g / dz^j analytically (Jacobi's formula); computing it
    through the connection gives a discretization route independent of
    :func:`log_det` + :func:`ddbar`.
    """
    spec = g.spec
    n = spec.n
    inv = _inverse(g)
    out = np.zeros(g.matrices.shape[:-2] + (n,), dtype=np.complex128)
    for j in range(n):
        dA = _d_z(g.matrices, j, spec)
        out[..., j] = np.trace(dA @ inv, axis1=-2, axis2=-1)
    return out


def _ricci_via_connection(g: HermitianField) -> np.ndarray:
    """R_{j kbar} = - d/dzbar^k tr(g^{-1} d_j g); connection-trace route."""
    spec = g.spec
    n = spec.n
    v = connection_trace(g)
    out = np.zeros(g.matrices.shape[:-2] + (n, n), dtype=np.complex128)
    for k in range(n):
        out[..., :, k] = -_d_zbar(v, k, spec)[..., :]
    return out


def ricci_difference_check(g: HermitianField, g_tilde: HermitianField) -> float:
    """Residual of Ric(g) - Ric(g~) = coefficients of i ddbar log(det g~ / det g).

    The left side is evaluated through the connection-trace route and the
    right side through :func:`ddbar`, so the residual measures genuine
    disagreement between two independent discretizations rather than
    reproducing identical arithmetic.
    """
    lhs = _ricci_via_connection(g) - _ricci_via_connection(g_tilde)
    ratio = log_det(g_tilde) - log_det(g)
    rhs = ddbar(ratio).matrices
    return float(np.max(np.abs(lhs - rhs)))


def scalar_curvature(g: HermitianField, r: HermitianField | None = None) -> ScalarField:
    """s = 2 g^{j kbar} R_{j kbar} (real-dimension convention)."""
    if r is None:
        r = ricci(g)
    inv = _inverse(g)
    s = 2.0 * np.trace(r.matrices @ inv, axis1=-2, axis2=-1).real
    return ScalarField(g.spec, s, basic=g.basic)
