"""Matrix-free Krylov subspace methods for real symmetric operators.

Submodules:

- :mod:`krylov.core`: small tridiagonal kernels and the operator contract
- :mod:`krylov.lanczos`: Lanczos and block Lanczos basis builders
- :mod:`krylov.orthopoly`: Chebyshev/orthogonal-polynomial layer
- :mod:`krylov.solvers`: CG, MINRES, multi-shift, preconditioning, bounds
- :mod:`krylov.matfunc`: f(A)b and b^T f(A) b approximations
- :mod:`krylov.trace`: stochastic trace and spectral-density estimators
- :mod:`krylov.matrices`, :mod:`krylov.experiments`, :mod:`krylov.cli`:
  test operators, named experiments, command-line harness
"""

from .core import (
    LinearOperator,
    SymTridiagonal,
    TridiagEig,
    sym_tridiag_eig,
    tridiag_apply_function,
    tridiag_solve,
)
from .lanczos import (
    BlockKrylovDecomposition,
    KrylovDecomposition,
    ReorthMode,
    block_lanczos,
    krylov_grade,
    lanczos,
)
from .matfunc import (
    MatFuncResult,
    block_lanczos_fa,
    block_lanczos_qf,
    fa_apriori_bound,
    lanczos_fa,
    lanczos_qf,
    rational_apply,
    two_pass_lanczos_fa,
)
from .orthopoly import (
    ChebyshevExpansion,
    DiscreteMeasure,
    JacksonWeights,
    cheb_approximant,
    cheb_eval,
    cdf_compare,
    gauss_quadrature,
    jackson_damping,
    modified_moments,
    stieltjes,
    wasserstein,
)
from .solvers import (
    IterateHistory,
    ShiftFamily,
    block_cg,
    cg,
    chebyshev_bound,
    error_estimate_delay,
    minres,
    multi_shift_solve,
    preconditioned_solve,
)
from .trace import (
    DensityApprox,
    ProbeSampler,
    TraceEstimate,
    control_variate_trace,
    hutchinson_trace,
    kpm_density,
    slq_density,
    slq_trace,
)

__version__ = "0.1.0"
