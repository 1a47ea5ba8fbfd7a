"""Jacobi expansions, the Watson kernel, and doubling/weight machinery."""

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    RegimeError,
    RegionError,
    SingularEvaluationError,
)
from .measure import (
    WeightedMeasure,
    doubling_bracket,
    doubling_ratio,
    doubling_sweep,
    dyadic_doubling_ratio_closed_form,
    equal_measure_split,
    interval_mass,
)
from .polynomials import (
    JacobiParams,
    QuadratureRule,
    binomial_real,
    gauss_jacobi_rule,
    jacobi_eval,
    jacobi_eval_table,
    jacobi_function_eval,
    jacobi_norm,
    jacobi_norm_sequence,
    jacobi_weighted_sum,
)
from .kernels import (
    AbelParameter,
    BaileyArguments,
    WatsonGeometry,
    appell_f4,
    kernel_mass,
    modified_watson_kernel,
    watson_kernel,
    watson_kernel_bailey,
    watson_kernel_integral,
    watson_kernel_series,
    watson_series_matrix,
)
from .abel import (
    Expansion,
    TestFunction,
    abel_mean,
    default_r_grid,
    fourier_jacobi_coefficients,
    jacobi_maximal,
    lp_convergence_probe,
    lp_norm,
    modified_abel_mean,
    test_function_family,
    weak11_probe,
)
from .harmonic import (
    CZDecomposition,
    PowerWeight,
    ZygmundConstants,
    a1_constant,
    ap_constant,
    ap_divergence_probe,
    cz_decompose,
    hl_maximal,
    kernel_level_bound_check,
    lateral_maximal,
    weighted_interval_average,
    zygmund_bound_check,
    zygmund_constants,
)
from .estimates import (
    DyadicMajorant,
    PoissonTypeKernel,
    L_majorant,
    basic_inequality_constant,
    dyadic_domination_constant,
    estm_integrals,
    estm_proof_variant,
    j_domination_probe,
    j_operator_apply,
    kernel_shift_check,
    mainest_integral,
    poisson_mass,
    sxy_inequalities_check,
)

__version__ = "0.1.0"
