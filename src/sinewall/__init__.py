"""Exact engine for sine-power wall-crossing of genus-indexed curve counts."""

from . import gv, hodge, partitions, series, wallcross
from .series import *
from .partitions import *
from .hodge import *
from .wallcross import *
from .gv import *

__all__ = [*series.__all__, *partitions.__all__, *hodge.__all__, *wallcross.__all__, *gv.__all__]

__version__ = "0.1.0"
