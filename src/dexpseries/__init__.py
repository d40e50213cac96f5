"""Taylor series of the transported differential of the exponential map.

For a manifold with a torsion-free affine connection, the differential of the
exponential map at a velocity v, pulled back to the base tangent space by
parallel transport along the geodesic, is an operator-valued function of v.
This package computes its Taylor expansion (exact rational coefficients
attached to composition words of curvature-derivative operators), evaluates it
on concrete chart models two independent ways, and cross-validates everything
against direct ODE integration of Jacobi fields.
"""

from .evaluate import (
    SeriesEvaluation,
    closed_form_components,
    evaluate_closed_form,
    evaluate_recurrence,
    evaluate_symmetric,
    ode_residual,
    recurrence_components,
)
from .geometry import (
    ChartDomainError,
    CurvatureJet,
    ManifoldModel,
    curvature,
    curvature_jet,
    directional_derivative,
    jacobi_operator,
    word_operator,
)
from .manifolds import flat, from_config, hyperbolic, polynomial_connection, sphere
from .oracle import (
    DerivativeCheck,
    GeodesicTrajectory,
    TransportFrame,
    curvature_derivative_check,
    curvature_derivative_table,
    dexp_oracle,
    dexp_oracle_fd,
    integrate_geodesic,
    transport_frame,
    transported_curvature,
)
from .series import (
    FormalSeries,
    closed_form_series,
    coefficient,
    degree,
    denominator,
    recurrence_series,
    series_table,
    word_factorial,
    words_of_degree,
    words_up_to_degree,
)
from .taylor import curvature_operators
from .tensors import (
    DenseTensor,
    LinearOperator,
    apply,
    compose,
    contract_leading,
    frobenius_norm,
    operator_distance,
)

__version__ = "0.1.0"
