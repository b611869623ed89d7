"""Order-6 complex Hadamard matrices and mutually unbiased bases.

Families (m6, fourier_f6, b6, s6), equivalence transforms and lemma-form
normalization, structural predicates (real submatrices, 2x2 Hadamard
submatrix counts, H2-reducibility, product columns), a counterexample
pipeline for the lemma-form zero-entry claim, and a numerical MU-vector
search with parameter scans.
"""

from .core import (
    SQRT6,
    Tolerances,
    DEFAULT_TOL,
    CMat6,
    ColVec6,
    unitarity_residual,
    modulus_residual,
    is_unitary,
    is_hadamard,
    matrix_to_json,
    matrix_from_json,
)
from .errors import (
    Mub6Error,
    InvalidInput,
    DomainError,
    SolveError,
)
from .families import (
    is_admissible_t,
    solve_m6_entries,
    m6,
    m6_grid,
    fourier_f6,
    b6,
    s6,
    B6_THETA_MIN,
    B6_THETA_MAX,
)
from .equivalence import (
    TransformRecord,
    random_record,
    apply,
    dephase,
    LemmaForm,
    to_lemma_form,
)
from .analysis import (
    SubmatrixLoc,
    AnalysisReport,
    REAL_ENTRY_BOUND,
    count_real_entries,
    exceeds_real_bound,
    find_real_submatrices,
    find_real_submatrices_up_to_rephasing,
    count_h2_submatrices,
    is_h2_reducible,
    find_unitary_submatrices,
    is_product_vector,
    product_triple_exists,
    submatrix_rank,
    analyze,
)
from .refutation import (
    LemmaReport,
    ThirdColumnWitness,
    VERDICT_REFUTED,
    VERDICT_NOT_REFUTED,
    run_counterexample,
    verify_tail_structure,
    third_column_witness,
)
from .musearch import (
    MUVector,
    OptimConfig,
    ScanRow,
    CSV_HEADER,
    mu_objective,
    find_mu_vectors,
    extract_bases,
    verify_triple,
    scan_m6,
    render_scan_csv,
)

__version__ = "0.1.0"
