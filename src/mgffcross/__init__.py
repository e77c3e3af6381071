"""Exact crossing and connection probabilities for level lines of the
metric-graph Gaussian free field, with a lattice Monte-Carlo cross-check.

Layers, bottom up:

`combinat`      Dyck paths, planar pair partitions, valence-2 link patterns
                and their slot lifts, the one place planarity is decided.
`incidence`     the arrow incidence matrix over pairings and its inverse.
`coulomb`       rational combinations of difference-product monomials and
                their one-point collapse (series extraction at x_v -> x_u).
`partition_fn`  pure partition functions Z_a, their fused descendants, the
                total mass they must add up to, and the point check.
`probability`   outcome distributions, rectangle geometry via theta-series
                moduli, and the cluster-pattern dictionary read off the
                slot lifts of the reachable patterns.
`mgff_sim`      square-lattice simulator: DST Poisson solver, per-edge
                percolation, batched connected-components arc wiring.
`verify`        independent numerical checks (null-field PDEs, Moebius
                covariance, collapse asymptotics, bounds).
`cli`           reproducible command-line runs with manifests.
"""

__version__ = "0.1.0"

from .combinat import (
    DyckPath,
    LinkPattern,
    PairPartition,
    enumerate_dyck_paths,
    enumerate_link_patterns,
    enumerate_pairings,
    make_pairing,
    make_pattern,
    tau,
)
from .errors import (
    CapacityError,
    DivergenceError,
    TruncationLimitError,
)
from .incidence import incidence_matrix, inverse_incidence
from .partition_fn import CONSTANTS, fused_pure_partition, pure_partition, z_mgff_total
from .probability import (
    RectanglePolygon,
    outcome_distribution,
    rectangle_distribution,
)
