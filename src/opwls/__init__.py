"""Operator learning by optimally weighted least squares.

Learns operators between function spaces from sampled input/output
coefficient pairs: orthonormal operator bases (rank-one linear and tensor
polynomial), Christoffel-function optimal sampling, block-separable weighted
least-squares solves with stability diagnostics, and desk-scale spectral PDE
benchmarks (Poisson, viscous Burgers).

All dense linear algebra runs on numpy's LAPACK; nothing imports
``scipy.linalg``.  The numpy and scipy wheels each bundle their own
OpenBLAS, and loading ``scipy.linalg`` maps the second one into the process
next to numpy's.  A variant that factored the Gram with ``scipy.linalg``
(``dpotrf``/``dpocon``/``cho_solve``) made the ``cli-presets`` benchmark
slower on a 2-core machine, from 1.43-1.56 s to 1.97-2.19 s of wall time and
from 2.8-3.1 s to 3.9-4.4 s of CPU time for the same arithmetic, most likely
from the two thread pools contending.  ``scipy.fft``, which carries no BLAS,
is loaded by the first Burgers solve.
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
    PolynomialFamily,
    ProductMeasure,
    QuadratureRule,
    UnivariateMeasure,
    build_family,
    eval_poly,
    gauss_rule,
)
from .operator_basis import (
    LinearRankOneBasis,
    PolyOperatorBasis,
    christoffel,
    monomial_operator_eval,
    optimal_weight,
)
from .pde import (
    BurgersConfig,
    DataSet,
    build_dataset,
    burgers_solve,
    greens_kernel,
    poisson_apply_1d,
    poisson_apply_2d,
    sine_modes_2d,
)
from .sampling import (
    DiscretePlan,
    InducedTable,
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
