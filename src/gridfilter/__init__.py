"""Grid-based approximate filtering for conditionally Gaussian systems, and
its verification suite; ``__all__`` joins the modules' ``__all__`` lists."""

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

__all__ = [name for module in (bounds, concentration, config, csvio, errors, filtering,
                               harness, likelihood, model, quantize, registry)
           for name in module.__all__]
