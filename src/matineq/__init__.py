"""matineq: certificates and witness constructions for matrix inequalities
relating a positive linear map of a normal matrix to the unitary orbit of the
map of its absolute value."""

__version__ = "0.2.1"

from .core import (
    LoewnerCheck,
    MajorizationReport,
    PolarFactors,
    SpectralData,
    conj_real_part,
    direct_sum,
    geometric_mean,
    haar_unitary,
    herm_eig,
    loewner_leq,
    mat_abs,
    polar,
    random_contraction,
    random_matrix,
    random_normal,
    random_psd,
    schur_prod,
    weak_log_majorize,
)
from .maps import (
    PositiveMapRep,
    apply,
    compose,
    corner_block_map,
    is_unital,
    partial_trace_first,
    random_cp_map,
    random_unital_cp_map,
    schur_multiplier,
)
from .certify import (
    Certificate,
    ReproResult,
    check_block_certificate,
    check_corollary_eigen,
    check_hermitian_sum,
    check_partial_trace,
    check_real_part,
    check_russo_dye,
    check_schur_diagonal,
    check_schur_normal,
    check_schur_square,
    check_sum_of_normals,
    check_theorem_main,
    check_two_positive_unital,
    check_weighted_sum,
    estimate_constant,
    minimal_orbit_constant,
    repro_no_single_unitary,
    repro_psi_sharpness,
    repro_sharpness_beta,
    search_nonnormal_counterexample,
)
