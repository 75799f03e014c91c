"""Self-adjoint realizations of the planar magnetic flux-line Hamiltonian:
resolvents, spectra, generalized eigenfunctions and scattering.

The package exports every module's ``__all__``; each public name is
declared once, in its module.  numpy's OpenBLAS runs on one thread unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is set or numpy
was imported first: the products are small, and a request then prints the
same bytes on one machine whatever its core count."""

import os
import sys

__version__ = "0.1.0"

if "numpy" not in sys.modules and os.environ.keys().isdisjoint(
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, as numpy loads OpenBLAS
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import errors, extension, krein, scattering, specfun, spectrum  # noqa: E402
from .errors import *  # noqa: F401,F403,E402
from .extension import *  # noqa: F401,F403,E402
from .krein import *  # noqa: F401,F403,E402
from .scattering import *  # noqa: F401,F403,E402
from .specfun import *  # noqa: F401,F403,E402
from .spectrum import *  # noqa: F401,F403,E402

__all__ = ["__version__", *errors.__all__, *extension.__all__, *krein.__all__,
           *scattering.__all__, *specfun.__all__, *spectrum.__all__]
