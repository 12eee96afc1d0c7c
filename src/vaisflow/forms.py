"""Coordinate-coframe differential forms on a foliated chart grid.

Components are real sampled fields indexed by strictly increasing coordinate
index tuples; antisymmetry is structural.  A component may carry an affine
part that is linear in the transverse coordinates.  This is how the chart
handles the base metric's quadratic seed potential, which is not periodic:
only its first derivatives enter any stored coefficient, they are linear,
and their exterior derivatives are constants that can be computed exactly
instead of being fed through the periodic stencils (which would be wrong at
the wrap seam).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import GridError
from .grid import GridSpec, ScalarField, _check_same_grid, fd_derivative

__all__ = ["CoefficientForm", "wedge_one_form", "hermitian_to_real_two_form"]


def _insertion_sign(a: int, idx: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sorted insertion of axis ``a`` into ``idx`` with the wedge sign."""
    pos = sum(1 for b in idx if b < a)
    sign = -1 if pos % 2 else 1
    return tuple(sorted(idx + (a,))), sign


def _add_fields(a: ScalarField | None, b: ScalarField) -> ScalarField:
    if a is None:
        return b
    if a.basic == b.basic:
        return a + b
    full, basic = (a, b) if not a.basic else (b, a)
    vals = full.values + basic.as_full_values()
    return ScalarField(full.spec, vals, basic=False)


@dataclass
class CoefficientForm:
    """A degree 1, 2, or 3 form with one real field per index tuple.

    ``components`` maps strictly increasing index tuples to sampled fields;
    missing tuples are zero.  ``linear`` maps the same tuples to length-D
    coefficient vectors of an affine part sum_b L[b] * coord_b (transverse
    coordinates only).
    """

    spec: GridSpec
    degree: int
    components: dict[tuple[int, ...], ScalarField] = field(default_factory=dict)
    linear: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree not in (1, 2, 3):
            raise GridError("only degrees 1, 2, 3 are supported")
        D = self.spec.num_axes
        for idx, f in self.components.items():
            if len(idx) != self.degree or tuple(sorted(set(idx))) != idx:
                raise GridError(f"bad component index {idx} for degree {self.degree}")
            if any(not 0 <= a < D for a in idx):
                raise GridError(f"component index {idx} out of range")
        for idx, lin in self.linear.items():
            lin = np.asarray(lin, dtype=np.float64)
            if lin.shape != (D,):
                raise GridError("linear coefficient vectors must have one entry per axis")
            if any(lin[a] != 0.0 and self.spec.is_leaf_axis(a) for a in range(D)):
                raise GridError("affine parts may only involve transverse coordinates")
            self.linear[idx] = lin

    # -- access ------------------------------------------------------------

    def component_values(self, idx: tuple[int, ...]) -> np.ndarray:
        """Evaluated values of one component, affine part included."""
        f = self.components.get(idx)
        lin = self.linear.get(idx)
        basic = f.basic if f is not None else True
        out = np.zeros(self.spec.shape(basic))
        if f is not None:
            out = out + f.values
        if lin is not None:
            for b, coef in enumerate(lin):
                if coef != 0.0:
                    out = out + coef * self.spec.coordinate_mesh(b, basic)
        return out

    def value(self, *indices: int) -> np.ndarray:
        """Component value for an arbitrary index order (sign included)."""
        if len(set(indices)) != len(indices):
            return np.zeros(self.spec.transverse_shape)
        order = np.argsort(indices, kind="stable")
        inversions = sum(
            1 for i in range(len(order)) for j in range(i + 1, len(order)) if order[i] > order[j]
        )
        sign = -1.0 if inversions % 2 else 1.0
        return sign * self.component_values(tuple(sorted(indices)))

    def sup_norm(self) -> float:
        out = 0.0
        for idx in set(self.components) | set(self.linear):
            out = max(out, float(np.max(np.abs(self.component_values(idx)))))
        return out

    # -- algebra -----------------------------------------------------------

    def scaled(self, c: float) -> "CoefficientForm":
        comps = {idx: f * c for idx, f in self.components.items()}
        lins = {idx: c * lin for idx, lin in self.linear.items()}
        return CoefficientForm(self.spec, self.degree, comps, lins)

    def __add__(self, other: "CoefficientForm") -> "CoefficientForm":
        _check_same_grid(self, other)
        if self.degree != other.degree:
            raise GridError("cannot add forms of different degree")
        comps = dict(self.components)
        for idx, f in other.components.items():
            comps[idx] = _add_fields(comps.get(idx), f)
        lins = {idx: lin.copy() for idx, lin in self.linear.items()}
        for idx, lin in other.linear.items():
            lins[idx] = lins.get(idx, 0.0) + lin
        return CoefficientForm(self.spec, self.degree, comps, lins)

    def __sub__(self, other: "CoefficientForm") -> "CoefficientForm":
        return self + other.scaled(-1.0)

    # -- calculus ----------------------------------------------------------

    def exterior_derivative(self) -> "CoefficientForm":
        """Componentwise periodic finite-difference d; affine parts exact.

        The derivative of an affine component is a constant, added directly;
        the periodic stencils never see the non-periodic affine data.
        """
        spec = self.spec
        D = spec.num_axes
        comps: dict[tuple[int, ...], ScalarField] = {}
        consts: dict[tuple[int, ...], float] = {}
        for idx, f in self.components.items():
            for a in range(D):
                if a in idx:
                    continue
                if f.basic and spec.is_leaf_axis(a):
                    continue  # structural zero
                new_idx, sign = _insertion_sign(a, idx)
                comps[new_idx] = _add_fields(comps.get(new_idx), fd_derivative(f, a, 1) * float(sign))
        for idx, lin in self.linear.items():
            for b in range(D):
                if lin[b] == 0.0 or b in idx:
                    continue
                new_idx, sign = _insertion_sign(b, idx)
                consts[new_idx] = consts.get(new_idx, 0.0) + sign * float(lin[b])
        for idx, c in consts.items():
            if c != 0.0:
                comps[idx] = _add_fields(comps.get(idx), ScalarField.constant(spec, c))
        return CoefficientForm(spec, self.degree + 1, comps)

    def as_vector(self) -> np.ndarray:
        """Degree-1 form as a per-point component vector v[a] on the transverse grid."""
        if self.degree != 1:
            raise GridError("as_vector applies to 1-forms")
        out = np.zeros(self.spec.transverse_shape + (self.spec.num_axes,))
        for idx in set(self.components) | set(self.linear):
            out[..., idx[0]] = self.component_values(idx)
        return out

    def as_matrix(self) -> np.ndarray:
        """Degree-2 form as an antisymmetric per-point matrix W[a, b] on the transverse grid."""
        if self.degree != 2:
            raise GridError("as_matrix applies to 2-forms")
        D = self.spec.num_axes
        out = np.zeros(self.spec.transverse_shape + (D, D))
        for (a, b) in set(self.components) | set(self.linear):
            vals = self.component_values((a, b))
            out[..., a, b] = vals
            out[..., b, a] = -vals
        return out

    def contract_vector(self, vec: np.ndarray) -> np.ndarray:
        """Interior product of a 1-form with a constant coordinate vector (length D).

        Requires basic components (all chart forms are basic).
        """
        if self.degree != 1:
            raise GridError("contract_vector applies to 1-forms")
        vec = np.asarray(vec, dtype=np.float64)
        if any(not f.basic for f in self.components.values()):
            raise GridError("contract_vector expects basic components")
        out = np.zeros(self.spec.transverse_shape)
        for (a,) in set(self.components) | set(self.linear):
            if vec[a] != 0.0:
                out = out + vec[a] * self.component_values((a,))
        return out


def wedge_one_form(one: CoefficientForm, other: CoefficientForm) -> CoefficientForm:
    """theta ^ other for a constant-coefficient 1-form theta.

    The restriction to constant theta keeps products of affine parts out of
    the model; the chart's Lee form is the constant dx, which is all the
    package needs.
    """
    _check_same_grid(one, other)
    if one.degree != 1:
        raise GridError("wedge_one_form expects a 1-form on the left")
    if one.linear:
        raise GridError("left factor must have constant coefficients")
    coeffs: dict[int, float] = {}
    for (a,), f in one.components.items():
        vals = np.unique(f.values)
        if vals.size != 1:
            raise GridError("left factor must have constant coefficients")
        if vals[0] != 0.0:
            coeffs[a] = float(vals[0])
    comps: dict[tuple[int, ...], ScalarField] = {}
    lins: dict[tuple[int, ...], np.ndarray] = {}
    for a, ca in coeffs.items():
        for idx, f in other.components.items():
            if a in idx:
                continue
            new_idx, sign = _insertion_sign(a, idx)
            comps[new_idx] = _add_fields(comps.get(new_idx), f * (sign * ca))
        for idx, lin in other.linear.items():
            if a in idx:
                continue
            new_idx, sign = _insertion_sign(a, idx)
            lins[new_idx] = lins.get(new_idx, 0.0) + (sign * ca) * lin
    return CoefficientForm(one.spec, one.degree + other.degree, comps, lins)


def hermitian_to_real_two_form(g) -> CoefficientForm:
    """Real coordinate components of the 2-form -i g_{j kbar} dz^j ^ dzbar^k.

    The sign convention pairs with omega(X, Y) = g(X, JY): the leafwise part
    -theta ^ theta_c and this transverse block then assemble a positive
    metric via g(X, Y) = -omega(X, JY).
    """
    spec = g.spec
    n = spec.n
    D = spec.num_axes
    E = np.zeros((n, D), dtype=np.complex128)
    for j in range(n):
        E[j, 2 * j] = 1.0
        E[j, 2 * j + 1] = 1.0j
    m = np.einsum("ja,...jk,kb->...ab", E, g.matrices, np.conj(E))
    w = (-1j * (m - np.swapaxes(m, -1, -2))).real
    comps = {}
    for a in range(D):
        for b in range(a + 1, D):
            vals = w[..., a, b]
            if np.any(vals != 0.0):
                comps[(a, b)] = ScalarField(spec, np.ascontiguousarray(vals), basic=g.basic)
    return CoefficientForm(spec, 2, comps)
