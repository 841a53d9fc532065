"""Continuous-time quantum walks relative to graph Laplacians, with twin-edge
perturbations in closed form and perfect / pretty-good state transfer search."""

from .circulant import (
    CirculantSpec,
    adjacency_eigenvalues,
    almost_periodic_applicable,
    build_circulant,
    gcd_class,
    is_gcd_set,
    laplacian_eigenvalues,
    mod_four_condition,
    twin_condition,
)
from .families import (
    ExpectedWitness,
    FamilyInstance,
    circulant_twin_edge_family,
    complete_graph,
    k4n_remove_matching,
    quarter_weight_family,
    verify_family,
)
from .graphs import (
    WeightedGraph,
    build_graph,
    is_twin_pair,
    laplacian,
    list_twin_pairs,
    perturb_edge,
    rank_one_matrix,
)
from .spectral import (
    Spectrum,
    eigendecompose,
    is_integral_spectrum,
    matrix_exp_oracle,
)
from .walk import (
    EpsilonHit,
    PGSTWitness,
    TransferKind,
    TransferReport,
    check_lpst,
    check_periodic,
    perturbed_propagator,
    pgst_scan,
    propagator,
    pst_time_scan,
    transfer_amplitudes,
)

__version__ = "0.1.0"
