"""regspectra: spectral bounds and exhaustive search for regular graphs.

The package provides dense simple graphs and the constructions built on them,
one symmetric eigensolver path (LAPACK through numpy), Hoffman graphs with
their special matrices and fattenings, the quasi-clique association
machinery, numeric bound certificates, and an isomorph-free exhaustive search
for the maximum order of a connected k-regular graph with second largest
eigenvalue at most a given value.
"""

from .association import (
    CliqueFamily,
    CliquePartition,
    associate,
    maximal_cliques,
    partition_classes,
    quasi_clique,
)
from .bounds import (
    BoundCertificate,
    KnownValue,
    Thresholds,
    amply_regular_check,
    co_edge_bound_check,
    isolated_vertex_bound_check,
    known_v,
    lower_bound_graph,
    mu_bound,
    prop13_verifier,
    ramsey_lookup,
    srg_mu_check,
    thresholds,
)
from .errors import ConsistencyError, UnsupportedSizeError
from .graphs import (
    DistanceLayers,
    Graph,
    RegularityParams,
    contains_induced,
    diameter,
    distance_layers,
    regularity_params,
)
from .hoffman import (
    HoffmanGraph,
    attach_universal_fat,
    contains_hoffman_subgraph,
    fatten,
    slim_with_fats,
)
from .search import (
    SearchReport,
    canonical_form,
    enum_connected_regular,
    spectral_prune,
    v_search,
)
from .spectra import (
    Spectrum,
    coclique_extension_spectrum,
    eig_symmetric,
    quotient_matrix,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "CliqueFamily",
    "CliquePartition",
    "ConsistencyError",
    "DistanceLayers",
    "Graph",
    "HoffmanGraph",
    "KnownValue",
    "RegularityParams",
    "SearchReport",
    "Spectrum",
    "Thresholds",
    "UnsupportedSizeError",
    "amply_regular_check",
    "associate",
    "attach_universal_fat",
    "canonical_form",
    "co_edge_bound_check",
    "coclique_extension_spectrum",
    "contains_hoffman_subgraph",
    "contains_induced",
    "diameter",
    "distance_layers",
    "eig_symmetric",
    "enum_connected_regular",
    "fatten",
    "isolated_vertex_bound_check",
    "known_v",
    "lower_bound_graph",
    "maximal_cliques",
    "mu_bound",
    "partition_classes",
    "prop13_verifier",
    "quasi_clique",
    "quotient_matrix",
    "ramsey_lookup",
    "regularity_params",
    "slim_with_fats",
    "spectral_prune",
    "spectrum",
    "srg_mu_check",
    "thresholds",
    "v_search",
    "__version__",
]
