"""Link-level downlink MIMO simulator: Type I / Type II precoding codebooks,
CSI (RI/PMI/CQI) selection, feedback-overhead accounting, and SNR sweeps."""

__version__ = "0.1.0"

from . import channel, codebook, csi, overhead, sim
from .channel import *  # noqa: F403
from .codebook import *  # noqa: F403
from .csi import *  # noqa: F403
from .overhead import *  # noqa: F403
from .sim import *  # noqa: F403

__all__ = ["__version__", *channel.__all__, *codebook.__all__, *csi.__all__,
           *overhead.__all__, *sim.__all__]
