"""Grid-based approximate filtering for conditionally Gaussian systems.

The package splits into model definition (`model`, `registry`), state
quantization (`quantize`), likelihood evaluation and the filter recursion
(`likelihood`, `filtering`), brute-force oracles for small instances
(`filtering`), and the verification layer (`bounds`, `concentration`,
`harness`).  The `gridfilter` console script drives the same code paths from
INI configs.
"""

from . import (bounds, concentration, config, csvio, errors, filtering, harness,
               likelihood, model, quantize, registry)
from .bounds import *
from .concentration import *
from .config import *
from .csvio import *
from .errors import *
from .filtering import *
from .harness import *
from .likelihood import *
from .model import *
from .quantize import *
from .registry import *

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.
__all__ = [name for module in (bounds, concentration, config, csvio, errors, filtering,
                               harness, likelihood, model, quantize, registry)
           for name in module.__all__]
