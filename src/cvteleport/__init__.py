"""Numerical laboratory for tailored continuous-variable teleportation.

Implements the Heisenberg-picture variance algebra of a teleporter whose
measurement and displacement are tailored to prior knowledge of the
target alphabet, the one-shot and averaged fidelity formulas, a seeded
Monte Carlo engine over measurement outcomes that cross-validates the
closed forms, Gaussian-alphabet averaging, and the derivative-free
optimisation used to tune the protocol parameters.
"""

from .alphabet import gaussian_weighted_fidelity, gaussian_weighted_fidelity_quadrature
from .fidelity import (
    ComplexAmplitude,
    Fidelity,
    avg_fidelity_unit_gain,
    bfk_classical_limit,
    one_shot_fidelity,
)
from .measurement import McEstimate, component_sigma, mc_average_fidelity
from .optimize import (
    NonFiniteObjectiveError,
    OptimizationResult,
    maximize_scalar,
    optimize_eta_g2,
    optimize_gain,
)
from .protocol import (
    LAMBDA_MAX,
    ProtocolSettings,
    QuadratureCoefficients,
    QuadratureVariances,
    SqueezeLevel,
    g1_of_eta,
    g2_optimal,
    output_coefficients_tailored,
    squeeze_from_G,
    squeeze_from_lambda,
    variance_standard_gain,
    variances_tailored,
)
from .strategies import (
    CircleTailored,
    LineTailored,
    OptimalKnownTarget,
    Standard,
    Strategy,
    optimal_displacement,
)

__version__ = "0.1.0"

__all__ = [
    "CircleTailored",
    "ComplexAmplitude",
    "Fidelity",
    "LAMBDA_MAX",
    "LineTailored",
    "McEstimate",
    "NonFiniteObjectiveError",
    "OptimalKnownTarget",
    "OptimizationResult",
    "ProtocolSettings",
    "QuadratureCoefficients",
    "QuadratureVariances",
    "SqueezeLevel",
    "Standard",
    "Strategy",
    "avg_fidelity_unit_gain",
    "bfk_classical_limit",
    "component_sigma",
    "gaussian_weighted_fidelity",
    "gaussian_weighted_fidelity_quadrature",
    "g1_of_eta",
    "g2_optimal",
    "maximize_scalar",
    "mc_average_fidelity",
    "one_shot_fidelity",
    "optimal_displacement",
    "optimize_eta_g2",
    "optimize_gain",
    "output_coefficients_tailored",
    "squeeze_from_G",
    "squeeze_from_lambda",
    "variance_standard_gain",
    "variances_tailored",
]
