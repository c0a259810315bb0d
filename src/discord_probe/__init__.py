"""Local detection of quantum discord: dephasing witnesses, model systems
and a reproducible experiment runner."""

from .measures import (
    BasisGrid,
    dephasing_disturbance,
    minimal_dephasing_disturbance,
    negativity,
    trace_distance,
)
from .protocol import (
    EvolutionSpec,
    TimeGrid,
    WitnessBoundError,
    WitnessSeries,
    classical_correlation_witness,
    haar_average_estimate,
    run_local_detection,
    run_minimized_detection,
)
from .states import (
    BipartiteState,
    ProjectiveBasis,
    computational_basis,
    dephase,
    dephasing_delta,
    local_eigenbasis,
    qubit_basis,
    zero_discord_state,
)
from .tensor import (
    BipartitionDims,
    eig_hermitian,
    evolve,
    kron,
    partial_trace_b,
    partial_transpose_a,
)

__version__ = "0.1.0"
