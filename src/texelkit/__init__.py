"""Texture analysis toolkit for near-regular grayscale textures.

The pipeline: estimate the texture's period per axis from distance matching
function (DMF) curves, partition the image into period-sized blocks, compare
each block's first-order gray-level statistics against the whole image,
then either tile a representative block into a new texture or flag the
blocks that deviate.
"""

from .blocks import *
from .image import *
from .periodicity import *
from .stats import *
from .synthesis import *
from .testgen import *

__version__ = "0.1.0"

__all__ = []
__all__ += blocks.__all__
__all__ += image.__all__
__all__ += periodicity.__all__
__all__ += stats.__all__
__all__ += synthesis.__all__
__all__ += testgen.__all__
