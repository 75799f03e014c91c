"""Self-adjoint realizations of the planar magnetic flux-line Hamiltonian:
resolvents, spectra, generalized eigenfunctions and scattering.

The package exports every module's ``__all__``; each public name is
declared once, in its module, and specfun's resolve on first use.  Only
the grid code loads numpy, through ``_numpy``, and its OpenBLAS then runs
on one thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set or numpy was imported first: the products are
small, and a request prints the same bytes on one machine whatever its
core count."""

import os
import sys

__version__ = "0.1.0"


def _numpy():
    """numpy, imported with OpenBLAS on one thread when abx imports it first
    and the caller set no thread count; os.environ is left as it was."""
    if "numpy" not in sys.modules and os.environ.keys().isdisjoint(
            ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, as numpy loads OpenBLAS
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy
    return numpy


from . import errors, extension, krein, scattering, spectrum  # noqa: E402
from .errors import *  # noqa: F401,F403,E402
from .extension import *  # noqa: F401,F403,E402
from .krein import *  # noqa: F401,F403,E402
from .scattering import *  # noqa: F401,F403,E402
from .spectrum import *  # noqa: F401,F403,E402

_SPECFUN = ("bessel_j_orders", "hankel1_orders")  # specfun.__all__, which loads numpy

__all__ = ["__version__", *errors.__all__, *extension.__all__, *krein.__all__,
           *scattering.__all__, *_SPECFUN, *spectrum.__all__]


def __getattr__(name):
    if name in _SPECFUN:
        from . import specfun
        return getattr(specfun, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
