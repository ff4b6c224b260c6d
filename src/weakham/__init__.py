"""weak-ham-lab: a random-hypergraph laboratory for weak Hamilton cycles.

A weak cycle alternates distinct vertices with hyperedges (repeats allowed)
such that consecutive vertices share their connecting edge; existence
questions therefore reduce to the shadow graph, which the whole package
exploits. The library samples the binomial and fixed-size random d-uniform
models, decides weak Hamiltonicity exactly on small instances and
heuristically via rotation-extension at scale, analyzes non-expanding vertex
sets, and runs reproducible threshold experiments against the limit law
exp(-exp(-c)).
"""

# each star import also binds its submodule, read by __all__ below
from .errors import *
from .hypercore import *
from .randmodels import *
from .weakpaths import *
from .oracle import *
from .expansion import *
from .harness import *
from .plotting import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *hypercore.__all__,
    *randmodels.__all__,
    *weakpaths.__all__,
    *oracle.__all__,
    *expansion.__all__,
    *harness.__all__,
    *plotting.__all__,
]
