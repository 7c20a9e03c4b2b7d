"""Zeta-regularized determinants of Dirichlet Laplacians on
constant-curvature cones, with independent numerical cross-checks."""

# Each module's __all__ is its list of public names; the package
# re-exports them all.
from .determinants import *
from .pa_oracle import *
from .quadrature import *
from .special_functions import *

__version__ = "0.1.0"

__all__ = [
    *determinants.__all__,
    *pa_oracle.__all__,
    *quadrature.__all__,
    *special_functions.__all__,
    "__version__",
]
