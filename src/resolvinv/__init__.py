"""resolvinv: left inversion of finite resolvent series.

Builds the left inverse gamma*I + beta*A + h(A) of operators
f(A) = sum_j a_j (alpha_j - A)^{-1} and applies it to dense matrices,
recursive-filter deconvolution, exponential-sum integral equations and
even-kernel convolution equations, with Tikhonov regularization for the
ill-posed cases.
"""

from .errors import ResolvinvError
from .geometry import (
    HullPolygon,
    ImaginaryAxis,
    PointSpectrum,
    PositiveHalfLine,
    Spectrum,
    UnitCircle,
    convex_hull,
    hull_distance,
    hull_separated_from,
    hull_spectrum_distance,
)
from .operators import (
    DenseMatrixOperator,
    GridDerivativeOperator,
    MultiplierOperator,
    OperatorHandle,
    PeriodicShiftOperator,
    apply_plan,
    apply_series,
    convolution_series,
    forward_even_convolution,
    forward_exponential_volterra,
    forward_filter,
    invert_filter,
    solve_convolution,
    solve_even_convolution,
    solve_exponential_volterra,
    solve_filter,
    volterra_kernel,
)
from .rational import (
    FilterSpec,
    InversionPlan,
    checked_plan,
    filter_to_series,
    invert_to_plan,
)
from .regularize import (
    RegularizerConfig,
    SweepReport,
    convergence_sweep,
    regularized_apply,
    tikhonov_apply,
)
from .series import (
    AdmissibilityReport,
    ResolventSeries,
    caratheodory_zero_series,
    check_admissible,
    evaluate,
    gamma_beta,
    require_admissible,
)

__version__ = "0.1.0"
