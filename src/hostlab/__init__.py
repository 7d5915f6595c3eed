"""hostlab: exact xb-orbit experiments, adic measures, and Fourier smoothing bounds."""

from .adic import (
    PrecisionBudget,
    UnitPoint,
    kronecker_schedule,
    make_point_from_digits,
    mul_mod1,
)
from .errors import (
    HostlabError,
    InputError,
    NullCylinderError,
    PrecisionError,
    ResolutionError,
    ResourceError,
)
from .fourier import (
    C1DensitySpec,
    SmoothingParams,
    c1_bound_check,
    ft_adic,
    scaled_sq_integral,
    smoothing_rhs,
)
from .measures import (
    AdicMeasure,
    CylinderWord,
    MeasureGen,
    PastWord,
    bernoulli,
    cantor3,
    conditional_on_past,
    correlation_integral,
    cylinder_condition,
    entropy,
    equivariance_gap,
    ifs_digits,
    markov,
    realize,
    shift_push,
    uniform,
)
from .pipeline import (
    HostExperimentConfig,
    host_experiment,
    orbit_vs_conditional_compare,
    proof_chain_quantity,
    weyl_sum,
)

__version__ = "0.1.0"
