"""Self-adjoint realizations of the planar magnetic flux-line Hamiltonian:
resolvents, spectra, generalized eigenfunctions and scattering.

The package exports every module's ``__all__``; each public name is
declared once, in its module."""

__version__ = "0.1.0"

from . import errors, extension, krein, scattering, specfun, spectrum
from .errors import *  # noqa: F401,F403
from .extension import *  # noqa: F401,F403
from .krein import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403

__all__ = ["__version__", *errors.__all__, *extension.__all__, *krein.__all__,
           *scattering.__all__, *specfun.__all__, *spectrum.__all__]
