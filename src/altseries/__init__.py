"""Multi-method numerical laboratory for the alternating series

    S(t) = sum_{n>=1} (-1)^n e^(-t/n) / n.

Five independent evaluation routes (accelerated summation, Hankel-transform
quadrature, a 2D Fourier representation, a residue/saddle integral, and
closed-form asymptotics) cross-validate each other; every route reports an
honest error estimate and refuses ranges where it cannot deliver one.
"""

import importlib

# exported name -> the module that defines it, imported on first access
# (PEP 562), so that importing the package, or one route, loads no other
# route and, until a route that needs it runs, no numpy
_EXPORTS = {
    "DomainError": "core",
    "EvalOutcome": "core",
    "METHOD_NAMES": "core",
    "RangeError": "core",
    "ToleranceSpec": "core",
    "WorkLimitError": "core",
    "lambda_of_t": "core",
    "t_of_lambda": "core",
    "SeriesParams": "acceptance",
    "sum_alternating_s": "series",
    "hankel_s_star": "hankel",
    "fourier2d_s_star": "fourier2d",
    "ResidueResult": "residue",
    "s_star_via_residue": "residue",
    "asym_s_star": "asymptotic",
    "asym_s_t": "asymptotic",
    "error_envelope": "asymptotic",
}


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]
