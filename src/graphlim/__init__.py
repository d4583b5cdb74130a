"""Graph-limit optimization toolkit.

Kernels (graphons) for dense graph sequences, exact cut norms and
homomorphism densities, discrete and continuum cut energies, balanced-cut
solvers, and reproducible convergence experiments.
"""

from .errors import CapacityError, InfeasibleError, ParameterError
from .families import (
    FamilyInstance,
    bipartite,
    block_family,
    checkerboard,
    complete,
    halfgraph,
    w_random,
)
from .fields import (
    LabelModel,
    ThetaField,
    recovery_sequence,
    theta_from_labels,
)
from .functionals import (
    KKTReport,
    cell_averages,
    discrete_cut_energy,
    kkt_residual,
    limit_cut_energy,
    limit_energy_gradient,
)
from .graphons import (
    AnalyticGraphon,
    BipartiteSplitKernel,
    BlockDiagonalKernel,
    CheckerboardKernel,
    ConstantKernel,
    CutNormResult,
    Graph,
    HalfGraphKernel,
    StepGraphon,
    cut_norm,
    hom_density_graph,
    hom_density_graphon,
    motif_cycle4,
    motif_edge,
    motif_path3,
    motif_triangle,
    step_from_graph,
)
from .solvers import (
    BlockVertexResult,
    SolveReport,
    StepMinimum,
    block_vertex_minimum,
    brute_bisection,
    local_search_partition,
    minimize_limit_energy,
    project_box_mean,
    step_limit_minimum,
    swap_descent,
)

__version__ = "0.1.0"
