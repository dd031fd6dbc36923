"""flexrsa: exact restoration-oriented routing and spectrum allocation.

Pipeline: instance JSON -> reach-based trimming -> MILP (base / notrim /
trimmed; feasibility / maxsubset) -> external solver subprocess -> path
extraction and verification. A brute-force oracle grounds every piece on
small instances. The package is pure Python; trimming and the scenario
generator's router share one Dijkstra (`flexrsa.trimming.dijkstra`).
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Demand,
    InputError,
    Link,
    OpticalNetwork,
    RestorationInstance,
    RoutedPath,
    is_valid_path,
    paths_intersect,
)
from .trimming import UsefulTripleSet, compute_useful_triples  # noqa: F401
