"""Seedable random streams.

``simulate`` obtains its generator here so that its records are
reproducible bit-for-bit:

* algorithm: numpy's PCG64 seeded through ``numpy.random.SeedSequence((seed,))``;
* the study simulator draws everything it needs for a profile from the
  single stream ``stream(seed)`` of the profile's seed.

``RNG_ALGORITHM`` names this scheme, ``simulate``'s alone: no interval
draws, as both are computed from their exact laws (``catlr.binomratio``,
``catlr.betaratio``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import check_seed

if TYPE_CHECKING:
    import numpy as np

RNG_ALGORITHM = "pcg64-seedseq-v2"


def stream(seed: int) -> np.random.Generator:
    """The single generator for ``seed``."""
    check_seed(seed)
    # imported here, not at module level: only commands that draw need numpy
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
