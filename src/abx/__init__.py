"""Self-adjoint realizations of the planar magnetic flux-line Hamiltonian:
resolvents, spectra, generalized eigenfunctions and scattering.

The package exports every module's ``__all__``; each public name is
declared once, in its module, and specfun's resolve on first use.  Only
the grid code imports specfun, its ladders and angular sums.  abx has no
runtime dependency: numbers and sequences of numbers go in, numbers and
(nested) lists come out."""

__version__ = "0.1.0"

from . import errors, extension, krein, scattering, spectrum
from .errors import *  # noqa: F401,F403
from .extension import *  # noqa: F401,F403
from .krein import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403

_SPECFUN = ("bessel_j_orders", "hankel1_orders")  # specfun.__all__, grid code

__all__ = ["__version__", *errors.__all__, *extension.__all__, *krein.__all__,
           *scattering.__all__, *_SPECFUN, *spectrum.__all__]


def __getattr__(name):
    if name in _SPECFUN:
        from . import specfun
        return getattr(specfun, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
