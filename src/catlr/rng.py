"""Seedable random streams.

Every stochastic routine in this package obtains its generator here so
results are reproducible bit-for-bit:

* algorithm: numpy's PCG64 seeded through ``numpy.random.SeedSequence((seed,))``;
* each consumer draws everything it needs from the single stream
  ``stream(seed)``: the study simulator per profile seed, and each
  bootstrap interval call all of its replicates, same-source row first.

Streams serve the bootstrap and ``simulate`` only: the Dirichlet interval
is computed by quadrature and draws nothing.  ``RNG_ALGORITHM`` names this
scheme and is recorded in bootstrap interval metadata.
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
