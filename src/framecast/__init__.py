"""framecast: optimal quantum states for transmitting a Cartesian frame.

A single atom prepared across the irreducible blocks of its n-th level can
carry one, two, or three spatial axes to a distant party. This package builds
the transmission objectives in closed form, optimizes the sender and detector
states by alternating eigenvalue rounds, verifies every coefficient against
brute-force group quadrature, and replays the covariant measurement by Monte
Carlo sampling.
"""

from .basis import block_slice, flat_index, iter_jm, total_dim
from .coefficients import (
    Objective,
    SparseCoefficientTensor,
    assemble_tensor,
    cached_tensor,
)
from .frames import (
    GramLikeMatrix,
    WeightedVectorSet,
    build_c,
    reduce_to_axes,
    rotation_entry_tensor,
    weighted_objective_expectation,
)
from .objective import (
    AliceState,
    FidelityReport,
    FiducialState,
    fidelity_report,
)
from .optimizer import (
    OptimizationResult,
    SweepRow,
    b_from_a,
    best_of_restarts,
    direct_search_optimize,
    fit_asymptote,
    fixed_point_optimize,
    optimize_z_single_m,
    sweep,
    z_sector_matrix,
)
from .quadrature import (
    SO3Grid,
    coefficient_block,
    coefficient_deviation,
    coefficient_oracle,
    integrate,
    make_grid,
)
from .simulator import (
    MonteCarloReport,
    monte_carlo_error,
    outcome_density,
    povm_defect,
    sample_outcome,
)
from .so3 import (
    AngularIndex,
    EulerAngles,
    angles_from_matrices,
    big_d_matrix,
    error_angles,
    error_matrices,
    rotation_matrix_components,
    small_d_fourier,
    small_d_matrix,
)

__version__ = "0.1.0"
