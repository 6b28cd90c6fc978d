"""Exact expansion analysis of simplicial complexes over finite groups.

The library pairs fast checked implementations (coboundaries, thin-face
hierarchies, the local-correction loop, spectral certificates) with
brute-force oracles that re-derive every quantity by exhaustive enumeration on
desk-scale instances.  All combinatorial weights are exact rationals.
"""

from .cochains import (
    Cochain,
    act,
    coboundary_abelian,
    coboundary_nonabelian_0,
    coboundary_nonabelian_1,
    distance,
    is_cocycle,
    random_cochain,
)
from .complexes import (
    FaceSet,
    SimplicialComplex,
    build_complex,
    degree_bound,
    face_weight,
    link,
    mutual_weight,
    skeleton,
)
from .correction import (
    CorrectionTrace,
    ParameterSchedule,
    correct_abelian,
    correct_nonabelian,
    cosystolic_certificate,
    is_locally_minimal,
    is_minimal,
    one_step_abelian,
    one_step_nonabelian,
    parameter_schedule,
    verify_cosystolic_pair,
)
from .expansion import (
    NonLocalVerdict,
    ThinHierarchy,
    check_delta1_theorem_abelian,
    check_delta1_theorem_nonabelian,
    classify_non_local,
    classify_weakly_non_local,
    delta1,
    delta_i,
    f_down_sigma,
    gamma_sets,
    thin_hierarchy,
    upsilon_set,
)
from .groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    FiniteGroup,
    SymmetricGroup,
    TableGroup,
    group_from_spec,
)
from .instances import (
    bundled_instances,
    complete_complex,
    glued_simplices,
    single_simplex,
    torus_complex,
)
from .oracle import (
    EnumerationBudget,
    coboundary_expansion_constant,
    cosystolic_expansion_constants,
    enumerate_spaces,
    exact_distance,
    min_nontrivial_cocycle_weight,
    verify_against_oracle,
)
from .spectral import (
    SpectralCertificate,
    WeightedGraph,
    cheeger_quantities,
    local_spectral_lambda,
    second_eigenvalue,
    underlying_graph,
)

__version__ = "0.1.0"
