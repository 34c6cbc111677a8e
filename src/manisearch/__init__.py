"""Derivative-free direct search on Riemannian manifolds.

Geometry (``manifolds``), search directions (``directions``), solvers
(``solvers``), seeded benchmark problems (``problems``), and run
aggregation into data/performance profiles (``bench``), plus a batch CLI
(``manisearch run|profile|check``).
"""

from .bench import (
    ProfileCurve,
    ResultRow,
    ResultTable,
    assemble_results,
    converged,
    data_profile,
    evals_to_converge,
    performance_profile,
)
from .directions import (
    DenseDirectionStream,
    SpanningBasis,
    dense_direction,
    measure_tau,
    spanning_basis,
)
from .manifolds import (
    Euclidean,
    FixedRank,
    Manifold,
    ManifoldPoint,
    PositiveSimplex,
    Product,
    SpecialOrthogonal,
    Sphere,
    Stiefel,
    SymmetricPositiveDefinite,
    TangentVector,
    product_spheres,
    random_point,
    random_tangent,
)
from .problems import (
    NONSMOOTH_PROBLEMS,
    PROBLEM_NAMES,
    SMOOTH_PROBLEMS,
    ProblemInstance,
    build_instance,
)
from .solvers import (
    DEFAULT_PARAMS,
    SOLVER_NAMES,
    LinesearchResult,
    RunTrace,
    SolverConfig,
    default_config,
    linesearch_extrapolate,
    run_solver,
)

__version__ = "0.1.0"
