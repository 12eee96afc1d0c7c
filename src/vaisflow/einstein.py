"""Full-manifold Ricci assembly and Einstein-type identity checks.

In the adapted splitting the Ricci tensor of a Vaisman structure has only
two independent pieces: the Q-block, related to the transverse Ricci by
Ric|_Q = Ric^T - g^T / 2, and the fixed leafwise value Ric(V, V) = n/2; the
Lee direction and all cross blocks vanish.  A quasi-Einstein decomposition
Ric = lambda g + alpha theta_c (x) theta_c + beta theta (x) theta therefore
forces lambda + alpha = n/2 and beta = -lambda, and the Weyl-connection
Ricci tensor Ric^D = Ric + (n/2) theta (x) theta - (n/2) g vanishes exactly
on the quasi-Einstein locus lambda = n/2, beta = -n/2.

Conventions: the chart normalization has unit Lee form, g(U, U) = g(V, V) = 1,
and frames are the duality frames X_j of the chart, so the Q-block is just
the Hermitian coefficient field and the U, V rows are scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateScale, GridError
from .transverse import HermitianField, ricci

__all__ = [
    "BlockRicci",
    "EinsteinFit",
    "assemble_full_ricci",
    "quasi_einstein_fit",
    "weyl_ricci_residual",
    "ke_homothety",
    "apply_ke_homothety",
    "p0k_check",
    "scalar_curvature_relation",
    "frame_scalar_curvature",
]


@dataclass(frozen=True)
class BlockRicci:
    """Full-manifold Ricci tensor in the adapted frame splitting.

    ``q_block`` holds Ric(X_j, Xbar_k); ``vv_value`` is Ric(V, V) = n/2.
    Ric(U, .) and the U/V cross blocks vanish identically for Vaisman input
    and are represented structurally rather than stored.
    """

    q_block: HermitianField
    vv_value: float
    n: int


@dataclass(frozen=True)
class EinsteinFit:
    lambda_: float
    alpha: float
    beta: float
    residual: float
    n: int

    @property
    def constraints_ok(self) -> bool:
        """lambda + alpha = n/2 and beta = -lambda, to 1e-8."""
        scale = max(1.0, abs(self.lambda_))
        return (
            abs(self.lambda_ + self.alpha - 0.5 * self.n) <= 1e-8 * scale
            and abs(self.beta + self.lambda_) <= 1e-8 * scale
        )


def assemble_full_ricci(ricci_T: HermitianField, g_T: HermitianField, n: int) -> BlockRicci:
    """Ric|_Q = Ric^T - g^T / 2, Ric(V, V) = n/2, vanishing cross blocks."""
    if ricci_T.spec != g_T.spec:
        raise GridError("Ricci and metric fields live on different grids")
    q = HermitianField(g_T.spec, ricci_T.matrices - 0.5 * g_T.matrices, basic=g_T.basic)
    return BlockRicci(q_block=q, vv_value=0.5 * n, n=n)


def quasi_einstein_fit(ric: BlockRicci, g_T: HermitianField, n: int) -> EinsteinFit:
    """Least-squares decomposition Ric = lambda g + alpha tc (x) tc + beta th (x) th.

    Over the frame components the model reads: Q-block = lambda g^T,
    Ric(V, V) = lambda + alpha, Ric(U, U) = lambda + beta = 0.  alpha and
    beta each appear in exactly one equation, so the joint least squares
    fixes lambda from the Q-block alone and satisfies the two scalar rows
    exactly; the residual then reports the Q-block misfit.  The identities
    lambda + alpha = n/2 and beta = -lambda are checked by the caller, not
    imposed: a violation would show up as vv_value != n/2.
    """
    g = g_T.matrices
    q = ric.q_block.matrices
    denom = float(np.sum(np.abs(g) ** 2))
    lam = float(np.sum(np.conj(g) * q).real) / denom
    alpha = ric.vv_value - lam
    beta = -lam  # Ric(U, U) = 0 row
    resid = float(np.max(np.abs(q - lam * g)))
    return EinsteinFit(lambda_=lam, alpha=alpha, beta=beta, residual=resid, n=n)


def weyl_ricci_residual(ric: BlockRicci, g_T: HermitianField, n: int) -> float:
    """sup-norm of Ric^D = Ric + (n/2) theta (x) theta - (n/2) g over the frame.

    Vanishes exactly when the structure is Einstein-Weyl, equivalently when
    the metric is quasi-Einstein with lambda = n/2, beta = -n/2 (the U and V
    rows of Ric^D vanish identically on Vaisman input, so the whole content
    sits in the Q-block).
    """
    q_resid = float(np.max(np.abs(ric.q_block.matrices - 0.5 * n * g_T.matrices)))
    vv_resid = abs(ric.vv_value - 0.5 * n)  # theta(V) = 0
    return max(q_resid, vv_resid)


def ke_homothety(lam: float, n: int) -> float:
    """Homothety constant a = (2 lambda + 1)/(n + 1) normalizing Ric|_Q to (n/2) g~.

    Requires lambda > -1/2 (the transverse Einstein constant lambda + 1/2
    must be positive for the scale to be admissible).
    """
    if not lam > -0.5:
        raise DegenerateScale(f"lambda = {lam} requires lambda > -1/2")
    return (2.0 * lam + 1.0) / (n + 1.0)


def apply_ke_homothety(
    g_T: HermitianField, ricci_T: HermitianField, a: float, n: int
) -> tuple[HermitianField, BlockRicci]:
    """Ricci blocks of the homothety g~ = a g (transverse part).

    Uses the homothety invariance of the transverse Ricci tensor
    (Ric^T_{a g} = Ric^T_g, the scale covariance of :func:`ricci`), so the
    new Q-block is Ric^T - (a/2) g^T = ((2 lambda + 1 - a)/(2a)) g~^T for
    transversally Einstein input.
    """
    if not a > 0:
        raise DegenerateScale(f"homothety scale must be positive, got {a}")
    g_new = g_T.scaled(a)
    return g_new, assemble_full_ricci(ricci_T, g_new, n)


def p0k_check(ric: BlockRicci, g_T: HermitianField, n: int) -> tuple[bool, float]:
    """(residual < 1e-8, residual) of Ric = (n ||theta||^2 / 2) g - (n/2) theta (x) theta.

    A flat Weyl connection forces this closed form.  The chart's Lee form
    is theta = dx, so ||theta|| = 1 and the residual is the Einstein-Weyl
    residual of :func:`weyl_ricci_residual` (the U row is 0 exactly).
    """
    residual = weyl_ricci_residual(ric, g_T, n)
    return residual < 1e-8, residual


def scalar_curvature_relation(lam: float, n: int) -> float:
    """s = 2 n lambda + n/2 for a quasi-Einstein structure."""
    return 2.0 * n * lam + 0.5 * n


def frame_scalar_curvature(ric: BlockRicci, g_T: HermitianField) -> float:
    """Frame trace 2 tr(g^{-1} q_block) + Ric(V,V); grid mean for fields.

    Cross-checks :func:`scalar_curvature_relation` (Ric(U, U) contributes
    nothing).
    """
    inv = np.linalg.inv(g_T.matrices)
    tr = np.trace(ric.q_block.matrices @ inv, axis1=-2, axis2=-1).real
    return float(2.0 * np.mean(tr) + ric.vv_value)
