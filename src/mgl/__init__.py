"""Magnetic Schrodinger forms on finite weighted graphs.

Library and CLI for assembling scalar and bundle-valued graph energy
forms, verifying semigroup/resolvent/form domination (the discrete
diamagnetic inequality), exercising order-theoretic projection formulas,
and checking intrinsic-metric adaptedness along exhaustions.
"""

from .bundles import (
    HermitianBundle,
    check_paired,
    load_bundle,
    pair,
    restrict_bundle,
    symmetrize,
    trivial_bundle,
    validate_bundle,
)
from .cones import (
    absolute_part,
    lattice_inf,
    lattice_sup,
    negative_part,
    positive_part,
    project_domination_set,
    project_domination_set_halfsum,
)
from .domination import (
    DominationReport,
    Verdict,
    check_form_domination,
    check_resolvent_domination,
    check_semigroup_domination,
    diamagnetic_report,
    sgn_inequality_check,
)
from .forms import (
    FormOperator,
    assemble_magnetic_form,
    assemble_scalar_form,
)
from .graphs import (
    VertexSubset,
    WeightedGraph,
    load_graph,
    restrict_dirichlet,
    restrict_neumann,
)
from .metrics import (
    CutoffSequence,
    EdgeLengths,
    PseudoMetric,
    UniquenessReport,
    chain_measure_sum,
    check_intrinsic,
    completeness_check,
    degree_bound_on_balls,
    degree_edge_lengths,
    exhaustion_uniqueness_experiment,
    jump_size,
    path_metric,
    strongly_intrinsic_check,
)
from .spectral import (
    beurling_deny_check,
    euler_limit_check,
    form_limit_check,
    laplace_check,
    ouhabaz_invariance_check,
)

__version__ = "0.1.0"
