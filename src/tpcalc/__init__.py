"""Exact two-sided transversal probabilities of finite groups.

The package computes, with exact rational arithmetic, the probability that a
random left transversal of a subgroup is also a right transversal, minimises
it over all subgroups, and machine-checks the bounds, classifications, and
structural gates that the invariant satisfies.
"""

__version__ = "0.1.0"

from .errors import (
    ActionError,
    BudgetError,
    FormatError,
    NormalityError,
    ParameterError,
    PreconditionError,
    SizeLimitError,
    TpcalcError,
    VerificationError,
)
from .group_core import (
    GroupTable,
    Lattice,
    StructureReport,
    Subgroup,
    all_subgroups,
    classify_structure,
    cp_rtimes_c2n,
    cosets,
    cyclic,
    dihedral,
    direct_product,
    double_cosets,
    elementary_abelian,
    field_frobenius,
    from_permutation_generators,
    generalized_quaternion,
    has_section,
    is_isomorphic,
    lattice,
    quotient_group,
    semidirect_product,
    subgroup_generated,
    subgroup_relations,
)
from .coset_graph import (
    Component,
    CosetGraph,
    build_coset_graph,
    frobenius_s2_check,
    s_bounds_check,
)
from .transversal import (
    BoundsReport,
    WeightMatrix,
    bounds_report,
    dt_enumerate,
    orbit_t_vector,
    p_from_tvector,
    p_g,
    permanent_ryser,
    weight_matrix,
)
from .arith_nt import (
    factorial_ratio,
    log_f,
    majorisation,
    next_prime,
    padic_valuation,
    prodpi_collision_scan,
    schur_strict_check,
)
from .tp_engine import (
    TheoremVerdict,
    TpResult,
    classify_special_values,
    tp,
    verify_monotonicity,
    verify_structure_theorems,
)
from .catalog import (
    CatalogEntry,
    ResultsCache,
    build_group,
    catalog_build,
    catalog_hash,
    scan_and_report,
)
