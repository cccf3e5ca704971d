"""Two-qubit entanglement teleportation through a noisy Werner channel.

A small simulation library plus CLI: dense 4x4 density-matrix kernel,
state constructors, negativity and information measures, a brute-force
protocol simulation with matching closed forms, and randomised checks of
the entanglement-measure axioms.
"""

from .axioms import (
    AxiomReport,
    LgmCcFamily,
    check_c1,
    check_c2,
    check_c3,
    sample_lgm_cc,
)
from .entanglement import (
    EntanglementReport,
    entropy_of_entanglement,
    entropy_vs_negativity_curve,
    negativity,
)
from .information import (
    InformationReport,
    information_decomposition,
    observable_information,
    total_information,
)
from .matkernel import (
    adjoint,
    check_density_matrix,
    herm_eigvals,
    partial_trace,
    partial_transpose,
    purity,
    tensor,
)
from .states import (
    BellOutcome,
    HilbertSchmidtForm,
    SeedParams,
    WernerChannel,
    bell_outcome,
    bell_projector,
    hs_compose,
    hs_decompose,
    random_local_unitary,
    random_product_state,
    rotated_pure_state,
    rotation_from_unitary,
    seed_state,
    werner_state,
)
from .teleport import (
    BobStrategy,
    GridReport,
    TeleportationReport,
    correlation_info_from_entanglement,
    fidelity_closed_form,
    fidelity_general,
    final_entanglement_closed_form,
    final_information_closed_form,
    final_state_closed_form,
    optimal_strategy,
    simulate,
    simulate_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BellOutcome",
    "BobStrategy",
    "EntanglementReport",
    "GridReport",
    "HilbertSchmidtForm",
    "InformationReport",
    "LgmCcFamily",
    "SeedParams",
    "TeleportationReport",
    "WernerChannel",
    "adjoint",
    "bell_outcome",
    "bell_projector",
    "check_c1",
    "check_c2",
    "check_c3",
    "check_density_matrix",
    "correlation_info_from_entanglement",
    "entropy_of_entanglement",
    "entropy_vs_negativity_curve",
    "fidelity_closed_form",
    "fidelity_general",
    "final_entanglement_closed_form",
    "final_information_closed_form",
    "final_state_closed_form",
    "herm_eigvals",
    "hs_compose",
    "hs_decompose",
    "information_decomposition",
    "negativity",
    "observable_information",
    "optimal_strategy",
    "partial_trace",
    "partial_transpose",
    "purity",
    "random_local_unitary",
    "random_product_state",
    "rotated_pure_state",
    "rotation_from_unitary",
    "sample_lgm_cc",
    "seed_state",
    "simulate",
    "simulate_grid",
    "tensor",
    "total_information",
    "werner_state",
]
