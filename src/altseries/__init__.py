"""Multi-method numerical laboratory for the alternating series

    S(t) = sum_{n>=1} (-1)^n e^(-t/n) / n.

Five independent evaluation routes (direct summation, Hankel-transform
quadrature, a 2D Fourier representation, a residue/saddle integral, and
closed-form asymptotics) cross-validate each other; every route reports an
honest error estimate and refuses ranges where it cannot deliver one.
"""

from .core import (
    DomainError,
    EvalOutcome,
    METHOD_NAMES,
    RangeError,
    ToleranceSpec,
    WorkLimitError,
    lambda_of_t,
    t_of_lambda,
)
from .series import SeriesParams, sum_alternating_s
from .hankel import hankel_s_star
from .fourier2d import fourier2d_s_star
from .poles import StripParams, default_strip, pole_location
from .residue import ResidueResult, s_star_via_residue
from .asymptotic import asym_s_star, asym_s_t, error_envelope

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EvalOutcome",
    "METHOD_NAMES",
    "RangeError",
    "ToleranceSpec",
    "WorkLimitError",
    "lambda_of_t",
    "t_of_lambda",
    "SeriesParams",
    "sum_alternating_s",
    "hankel_s_star",
    "fourier2d_s_star",
    "StripParams",
    "default_strip",
    "pole_location",
    "ResidueResult",
    "s_star_via_residue",
    "asym_s_star",
    "asym_s_t",
    "error_envelope",
    "__version__",
]
