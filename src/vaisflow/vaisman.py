"""Vaisman structure tensors on a foliated chart, and their deformations.

Chart conventions
-----------------
Coordinates are ordered (x^1, y^1, ..., x^n, y^n, x, y) with U = d/dx and
V = d/dy spanning the leaves.  Writing P = h_B + h for the full transverse
potential (h the stored periodic potential, h_B the quadratic seed of the
constant base metric, handled as exact affine data) and
d^c f = (i/2)(delbar f - del f), the structure tensors are

    J       = J_0 + U (x) d^c P + V (x) (d^c P o J_0),
    theta   = dx,
    theta_c = -theta o J = dy - d^c P,
    X_j     = d/dz^j - theta_c(d/dz^j) V,
    omega   = [transverse block -i g_{j kbar} dz^j ^ dzbar^k] - theta ^ theta_c,

with g = base + ddbar(h).  These satisfy, exactly at every grid point:
J^2 = -1, J(U) = V, J(X_j) = i X_j, the coframe duality of
{dz^j, dzbar^j, theta, theta_c} against {X_j, Xbar_j, U, V}, and
d theta_c = (transverse block of omega) in the continuum, so that
d omega = theta ^ omega up to the stencil-route discretization gap measured
by :func:`verify_vaisman`.

The metric is recovered as g(X, Y) = -omega(X, JY); it is symmetric,
positive, and J-compatible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GridError, IdentityViolation, NonPositiveScale
from .forms import CoefficientForm, hermitian_to_real_two_form, wedge_one_form
from .grid import GridSpec, ScalarField, diff1
from .transverse import HermitianField, ddbar, metric_from_potential

__all__ = [
    "VaismanChart",
    "build_chart",
    "fundamental_form",
    "verify_vaisman",
    "deform",
    "q_homothety",
    "chart_metric_tensor",
    "frame_metric_block",
]

_IDENTITY_TOL = 1e-10


def _require_full(spec: GridSpec):
    if not spec.has_leaf:
        raise GridError("a Vaisman chart needs leaf axes (full spec)")


def _base_matrix(spec: GridSpec, base: HermitianField | None) -> np.ndarray:
    if base is None:
        return np.eye(spec.n, dtype=np.complex128)
    mats = base.matrices.reshape(-1, spec.n, spec.n)
    if not np.all(mats == mats[0]):
        raise GridError("the chart base metric must have constant coefficients")
    return np.array(mats[0])


def _dc_full_potential(spec: GridSpec, h: ScalarField, B: np.ndarray) -> CoefficientForm:
    """d^c of the full potential P = h_B + h as a 1-form with affine parts.

    Real components: (d^c P)_{x^j} = -P_{y^j}/2, (d^c P)_{y^j} = +P_{x^j}/2.
    The seed gradient is linear, (h_B)_{z^j} = sum_k B[j,k] zbar^k.
    """
    n = spec.n
    hs = spec.spacings
    comps: dict[tuple[int, ...], ScalarField] = {}
    lins: dict[tuple[int, ...], np.ndarray] = {}
    D = spec.num_axes
    for j in range(n):
        ax, ay = 2 * j, 2 * j + 1
        hx = diff1(h.values, ax, hs[ax])
        hy = diff1(h.values, ay, hs[ay])
        comps[(ax,)] = ScalarField(spec, -0.5 * hy, basic=True)
        comps[(ay,)] = ScalarField(spec, 0.5 * hx, basic=True)
        lin_x = np.zeros(D)
        lin_y = np.zeros(D)
        for k in range(n):
            re, im = B[j, k].real, B[j, k].imag
            # -(h_B)_{y^j}/2 and +(h_B)_{x^j}/2 expanded in coordinates
            lin_x[2 * k] += im
            lin_x[2 * k + 1] += -re
            lin_y[2 * k] += re
            lin_y[2 * k + 1] += im
        lins[(ax,)] = lin_x
        lins[(ay,)] = lin_y
    return CoefficientForm(spec, 1, comps, lins)


def _j0_matrix(D: int) -> np.ndarray:
    j0 = np.zeros((D, D))
    for p in range(D // 2):
        a, b = 2 * p, 2 * p + 1
        j0[b, a] = 1.0
        j0[a, b] = -1.0
    return j0


def _assemble_j(spec: GridSpec, dc_vals: np.ndarray) -> tuple[np.ndarray, float]:
    """J and its checked J^2 = -id defect (see :func:`_j_squared_defect`)."""
    D = spec.num_axes
    u_axis, v_axis = 2 * spec.n, 2 * spec.n + 1
    jmat = np.broadcast_to(_j0_matrix(D), spec.transverse_shape + (D, D)).copy()
    rotated = np.zeros_like(dc_vals)
    for p in range(spec.n):
        a, b = 2 * p, 2 * p + 1
        rotated[..., a] = dc_vals[..., b]
        rotated[..., b] = -dc_vals[..., a]
    jmat[..., u_axis, :] += dc_vals
    jmat[..., v_axis, :] += rotated
    defect = _j_squared_defect(jmat)
    if defect > _IDENTITY_TOL:
        raise IdentityViolation(f"J^2 = -id fails with defect {defect:.3e}")
    return jmat, defect


def _j_squared_defect(jmat: np.ndarray) -> float:
    """max |J J + id| over every point of per-point real matrices ``jmat``."""
    return float(np.max(np.abs(jmat @ jmat + np.eye(jmat.shape[-1]))))


def _lee_forms_and_j(spec: GridSpec, h: ScalarField, B: np.ndarray):
    """The Lee form theta = dx, the anti-Lee form theta_c = -theta o J, J and its J^2 defect.

    All from one d^c P and one J.  theta_c is assembled as dy - d^c P (which
    is what the contraction -theta o J evaluates to) and then verified
    against the pointwise contraction and the normalizations
    theta_c(V) = 1, theta_c(U) = 0.
    """
    u_axis, v_axis = 2 * spec.n, 2 * spec.n + 1
    theta = CoefficientForm(spec, 1, {(u_axis,): ScalarField.constant(spec, 1.0)})
    dc = _dc_full_potential(spec, h, B)
    minus_dc = dc.scaled(-1.0)
    comps = dict(minus_dc.components)
    comps[(v_axis,)] = ScalarField.constant(spec, 1.0)
    theta_c = CoefficientForm(spec, 1, comps, minus_dc.linear)

    jmat, j_squared = _assemble_j(spec, dc.as_vector())
    contraction = -jmat[..., u_axis, :]
    for a in range(spec.num_axes):
        diff = float(np.max(np.abs(theta_c.component_values((a,)) - contraction[..., a])))
        if diff > _IDENTITY_TOL:
            raise IdentityViolation(f"theta_c disagrees with -theta o J on axis {a}")
    if float(np.max(np.abs(theta_c.contract_vector(_unit(spec, v_axis)) - 1.0))) > _IDENTITY_TOL:
        raise IdentityViolation("theta_c(V) = 1 fails")
    if float(np.max(np.abs(theta_c.contract_vector(_unit(spec, u_axis))))) > _IDENTITY_TOL:
        raise IdentityViolation("theta_c(U) = 0 fails")
    return theta, theta_c, jmat, j_squared


def _unit(spec: GridSpec, axis: int) -> np.ndarray:
    e = np.zeros(spec.num_axes)
    e[axis] = 1.0
    return e


def _frame_from_theta_c(spec: GridSpec, theta_c: CoefficientForm) -> np.ndarray:
    """Frame X_j = d/dz^j - theta_c(d/dz^j) V spanning Q, shape grid + (n, D).

    Dual to {dz^j, theta, theta_c}: dz^j(X_k) = delta_jk and
    theta(X_j) = theta_c(X_j) = 0 hold exactly, and J(X_j) = i X_j.
    """
    n = spec.n
    D = spec.num_axes
    v_axis = 2 * n + 1
    frame = np.zeros(spec.transverse_shape + (n, D), dtype=np.complex128)
    for j in range(n):
        ax, ay = 2 * j, 2 * j + 1
        tc_x = theta_c.component_values((ax,))
        tc_y = theta_c.component_values((ay,))
        frame[..., j, ax] = 0.5
        frame[..., j, ay] = -0.5j
        frame[..., j, v_axis] = -0.5 * (tc_x - 1j * tc_y)
    return frame


def fundamental_form(
    theta: CoefficientForm, theta_c: CoefficientForm, metric: HermitianField
) -> CoefficientForm:
    """omega = d theta_c - theta ^ theta_c, with the transverse block taken
    from the metric coefficients.

    In the continuum the transverse block of d theta_c equals
    -i g_{j kbar} dz^j ^ dzbar^k exactly; using the metric coefficients here
    keeps the two discretization routes (metric assembly vs exterior
    derivative) distinct, so :func:`verify_vaisman` measures a genuine
    O(h^4) residual instead of reproducing identical arithmetic.
    """
    return hermitian_to_real_two_form(metric) - wedge_one_form(theta, theta_c)


def verify_vaisman(omega: CoefficientForm, theta: CoefficientForm) -> tuple[float, float]:
    """Residuals (sup ||d omega - theta ^ omega||, sup ||d theta||)."""
    d_omega = omega.exterior_derivative()
    t_omega = wedge_one_form(theta, omega)
    resid = d_omega - t_omega
    for idx, lin in resid.linear.items():
        if float(np.max(np.abs(lin))) > 1e-12:
            raise IdentityViolation("affine parts fail to cancel in the structure residual")
    r1 = resid.sup_norm()
    r2 = theta.exterior_derivative().sup_norm()
    return r1, r2


@dataclass(frozen=True)
class VaismanChart:
    """A foliated chart carrying the full set of Vaisman structure tensors.

    ``theta`` and ``theta_c`` are the Lee and anti-Lee forms, ``jmat`` the
    per-point matrices of J, shape grid + (D, D), and ``frame`` the adapted
    frame X_j, shape grid + (n, D).  ``j_squared`` is the J^2 = -id defect
    of ``jmat``, measured and checked when J was assembled.
    """

    spec: GridSpec
    h: ScalarField
    base: np.ndarray
    metric: HermitianField
    theta: CoefficientForm
    theta_c: CoefficientForm
    jmat: np.ndarray
    omega: CoefficientForm
    frame: np.ndarray
    j_squared: float


def build_chart(
    spec: GridSpec, h: ScalarField, base: HermitianField | None = None
) -> VaismanChart:
    """Construct a chart from a basic potential and run its invariant suite.

    Construction is fallible by design: PositivityLost if the transverse
    metric degenerates, IdentityViolation if any structural identity breaks.
    """
    _require_full(spec)
    if h.spec != spec:
        raise GridError("potential and chart specs differ")
    if not h.basic:
        raise GridError("the chart potential must be basic")
    B = _base_matrix(spec, base)
    base_field = HermitianField.constant(spec, B)
    metric = metric_from_potential(h, base_field)
    theta, theta_c, jmat, j_squared = _lee_forms_and_j(spec, h, B)
    omega = fundamental_form(theta, theta_c, metric)
    frame = _frame_from_theta_c(spec, theta_c)
    chart = VaismanChart(spec, h, B, metric, theta, theta_c, jmat, omega, frame, j_squared)
    _check_chart(chart)
    return chart


def _check_chart(chart: VaismanChart):
    spec = chart.spec
    # J(X_j) = i X_j pointwise
    jx = np.einsum("...ab,...jb->...ja", chart.jmat, chart.frame)
    defect = float(np.max(np.abs(jx - 1j * chart.frame)))
    if defect > _IDENTITY_TOL:
        raise IdentityViolation(f"J(X_j) = i X_j fails with defect {defect:.3e}")
    # coframe duality on the frame
    tc_on_frame = _pair_form_frame(chart.theta_c, chart.frame)
    if float(np.max(np.abs(tc_on_frame))) > _IDENTITY_TOL:
        raise IdentityViolation("theta_c(X_j) = 0 fails")
    th_on_frame = _pair_form_frame(chart.theta, chart.frame)
    if float(np.max(np.abs(th_on_frame))) > _IDENTITY_TOL:
        raise IdentityViolation("theta(X_j) = 0 fails")
    # metric compatibility g(J., J.) = g
    g = chart_metric_tensor(chart)
    if _compatibility_defect(chart.jmat, g) > _IDENTITY_TOL * max(1.0, float(np.max(np.abs(g)))):
        raise IdentityViolation("metric is not J-compatible")
    if float(np.max(np.abs(g - np.swapaxes(g, -1, -2)))) > _IDENTITY_TOL:
        raise IdentityViolation("assembled metric is not symmetric")


def _compatibility_defect(jmat: np.ndarray, g: np.ndarray) -> float:
    """max |J^T g J - g| over every point: the defect of g(J., J.) = g."""
    return float(np.max(np.abs(np.swapaxes(jmat, -1, -2) @ g @ jmat - g)))


def _pair_form_frame(form: CoefficientForm, frame: np.ndarray) -> np.ndarray:
    return np.einsum("...a,...ja->...j", form.as_vector(), frame)


def chart_metric_tensor(chart: VaismanChart) -> np.ndarray:
    """Coordinate components g_ab = -omega(d_a, J d_b), shape grid + (D, D)."""
    w = chart.omega.as_matrix()
    return -(w @ chart.jmat)


def frame_metric_block(chart: VaismanChart, tensor: np.ndarray) -> np.ndarray:
    """g(X_j, Xbar_k) for a coordinate tensor, shape grid + (n, n)."""
    return np.einsum("...ja,...ab,...kb->...jk", chart.frame, tensor, np.conj(chart.frame))


def deform(chart: VaismanChart, phi: ScalarField) -> VaismanChart:
    """Deformation by a basic function: potential h -> h + phi.

    The transverse metric gains the Hesse coefficients of phi, theta_c gains
    d^c phi, and J gains the matching attachment terms; all chart invariants
    are re-verified on the result.
    """
    if not phi.basic:
        raise GridError("the deformation function must be basic")
    base_field = HermitianField.constant(chart.spec, chart.base)
    return build_chart(chart.spec, chart.h + phi, base_field)


def q_homothety(chart: VaismanChart, a: float) -> np.ndarray:
    """Homothetic deformation g~ = a g + (a^2 - a)(theta_c (x) theta_c + theta (x) theta).

    Scales the transverse block by a and the leafwise block by a^2; returns
    the coordinate tensor of g~.
    """
    if not a > 0:
        raise NonPositiveScale(f"homothety scale must be positive, got {a}")
    g = chart_metric_tensor(chart)
    th, tc = chart.theta.as_vector(), chart.theta_c.as_vector()
    rank1 = np.einsum("...a,...b->...ab", tc, tc) + np.einsum("...a,...b->...ab", th, th)
    return a * g + (a * a - a) * rank1
