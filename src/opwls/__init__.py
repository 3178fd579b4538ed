"""Operator learning by optimally weighted least squares.

Learns operators between function spaces from sampled input/output
coefficient pairs: orthonormal operator bases (rank-one linear and tensor
polynomial), Christoffel-function optimal sampling, block-separable weighted
least-squares solves with stability diagnostics, and desk-scale spectral PDE
benchmarks (Poisson, viscous Burgers).

All dense linear algebra runs on numpy's LAPACK and the Burgers transforms
on numpy's FFTs, so no module loads scipy, and a process maps one OpenBLAS:
numpy's.  scipy would map a second, with a thread of its own, and take
about 0.2 s to import at the first Burgers solve.  After each
multi-threaded call OpenBLAS keeps an idle worker spinning, and a run calls
the BLAS more often than the spin lasts, so :func:`opwls.experiments.run`
holds numpy's OpenBLAS to one thread.
"""

__version__ = "0.1.0"

from .evaluation import (
    ErrorReport,
    SobolevWeighting,
    empirical_bochner_error,
    energy_fraction_lost,
    operator_matrix_view,
    reconstruct_kernel,
)
from .index_sets import (
    IndexSetSpec,
    generate,
    is_monotone_lower,
)
from .measures import (
    ProductMeasure,
    QuadratureRule,
    UnivariateMeasure,
    eval_poly,
    gauss_rule,
)
from .operator_basis import (
    LinearRankOneBasis,
    PolyOperatorBasis,
    christoffel,
    optimal_weight,
)
from .pde import (
    BurgersConfig,
    DataSet,
    build_dataset,
    greens_kernel,
    poisson_apply_1d,
    poisson_apply_2d,
    sine_modes_2d,
)
from .sampling import (
    DiscretePlan,
    MixturePlan,
    RngSeed,
    build_discrete_plan,
    build_induced_table,
    build_induced_tables,
    draw_induced,
    mixture_plan,
    sample_discrete,
    sample_monte_carlo,
    sample_optimal,
)
from .wls import (
    GramSummary,
    OperatorEstimate,
    WlsSystem,
    assemble,
    c_delta,
    condition_estimator,
    gram_diagnostics,
    min_samples,
    solve,
    truncate_output,
)

__all__ = [name for name in dir() if not name.startswith("_")]
