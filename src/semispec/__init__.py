"""semispec: trace inequalities on bipartite spaces and semiclassical
eigenvalue asymptotics of Schrodinger operators, verified at finite matrix
scale."""

from .linalg import (
    HermitianOperator,
    ScalarFunction,
    SpectralDecomposition,
    affine,
    apply_function,
    custom,
    eig_hermitian,
    eig_hermitian_stack,
    exp_neg,
    hermitian_stack,
    positive_part,
    power_neg,
    square,
    trace,
)
from .bipartite import (
    BipartiteDims,
    DensityMatrix,
    compress,
    kron,
    partial_trace_1,
    partial_trace_2,
    random_density,
    random_hermitian,
    random_unit_vector,
    state_stack,
)
from .inequalities import (
    gibbs_gap,
    gibbs_state,
    golden_thompson_gap,
    jensen_partial_trace_gap,
    jensen_scalar_gap,
    sliced_gt_gap,
    sliced_hamiltonian,
    violates,
)
from .schrodinger import (
    CoherentWindow,
    GridOperator,
    Homogeneous,
    QuadrantProfile,
    SeparatelyHomogeneous,
    build_hamiltonian,
    channel_boxes,
    coherent_frame_defect,
    coherent_lower_bound,
    coherent_partial_lower_bound,
    counting_box,
    counting_function,
    delta_window,
    flat_window,
    gaussian_window,
    heat_box,
    heat_trace,
    heat_truncation_bound,
    points_for_spacing,
    spectrum,
    transverse_zetas,
    zeta_trace,
)
from .asymptotics import (
    ExponentFit,
    Prediction,
    check_partial_regime,
    counting_constant,
    counting_law,
    divergence_classifier,
    exponent_fit,
    heat_constant,
    heat_law,
    partial_exponent,
    phase_space_identity_check,
    zeta_power,
)

__version__ = "0.1.0"
