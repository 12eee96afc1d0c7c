"""Transverse Kahler-Ricci flow on discretized foliated charts.

The package is organized around five numeric layers:

- :mod:`vaisflow.grid`: periodic sampled fields and the difference calculus.
- :mod:`vaisflow.transverse`: Hermitian metric fields, ddbar, Ricci.
- :mod:`vaisflow.flow`: the potential-level Monge-Ampere flow (basic,
  leafwise-extended, and rescaled variants).
- :mod:`vaisflow.vaisman`: chart structure tensors, deformations, and the
  structure-identity checks.
- :mod:`vaisflow.einstein`: block Ricci assembly, quasi-Einstein fitting,
  Einstein-Weyl residuals, and the normalizing homothety.

``vaisflow.cli`` exposes the batch driver (see the ``vaisflow`` command).
"""

from .einstein import (
    BlockRicci,
    EinsteinFit,
    apply_ke_homothety,
    assemble_full_ricci,
    ke_homothety,
    p0k_check,
    quasi_einstein_fit,
    scalar_curvature_relation,
    weyl_ricci_residual,
)
from .exceptions import (
    ConfigError,
    DegenerateScale,
    GridError,
    IdentityViolation,
    InexactClass,
    NonFinitePotential,
    NonPositiveDeterminant,
    NonPositiveScale,
    PositivityLost,
    SingularMetric,
    SnapshotError,
    StepFloor,
    VaisflowError,
)
from .flow import (
    FlowConfig,
    FlowReport,
    FlowState,
    build_volume_form,
    initial_state,
    leafwise_defect,
    ma_rhs,
    ma_rhs_extended,
    reference_form,
    run,
    step,
    transverse_metric,
)
from .forms import CoefficientForm
from .grid import GridSpec, ScalarField, fd_derivative, integrate, norms
from .transverse import (
    HermitianField,
    ddbar,
    log_det,
    metric_from_potential,
    ricci,
    ricci_difference_check,
)
from .vaisman import (
    VaismanChart,
    build_chart,
    deform,
    fundamental_form,
    q_homothety,
    verify_vaisman,
)

__version__ = "0.1.0"
