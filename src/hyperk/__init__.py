"""Numerical toolkit for a hypergeometric-kernel fractional integral.

The operator generalizes the Riemann-Liouville fractional integral with a
Gauss hypergeometric weight and a power substitution; this package computes
it with certified split Gauss-Jacobi quadrature and uses it to stress-test
a family of Minkowski- and Hoelder-type integral inequalities.

Each module's ``__all__`` is its share of the package's export list.
"""

from . import errors, specfun, quadrature, fracint, testfuncs, inequalities
from .errors import *
from .specfun import *
from .quadrature import *
from .fracint import *
from .testfuncs import *
from .inequalities import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *specfun.__all__, *quadrature.__all__, *fracint.__all__,
    *testfuncs.__all__, *inequalities.__all__, "__version__",
]
