"""Time-bin linear-optical interferometer simulator.

Exact amplitude propagation for coherent pulse trains and delocalised
single photons through delay-line interferometers, Monte-Carlo threshold
detection, multiport splitter synthesis, and a brute-force truncated
Fock-space oracle for cross-validation.
"""

__version__ = "0.1.0"

from .circuit import (
    Absorber,
    BeamSplitter,
    CircuitSpec,
    CompiledCircuit,
    Delay,
    Detector,
    Obstacle,
    PhaseShift,
    Source,
    compile_circuit,
    default_beamsplitter,
)
from .coherent import (
    ClickDistribution,
    CoherentTrain,
    EventLog,
    FieldConfiguration,
    click_distribution,
    fringe_sweep,
    interaction_free_probability,
    propagate_coherent,
    sample_clicks,
)
from .fock import (
    FockBasis,
    FockOracle,
    FockStateVector,
    apply_two_mode_unitary,
    prepare_coherent_train,
)
from .multiport import (
    Decomposition,
    TwoModeOp,
    reck_decompose,
)
from .records import replace
from .scenarios import Scenario, list_builtin_scenarios, load_scenario
from .singlephoton import (
    OutcomeDistribution,
    propagate_photon,
    tensor_sum_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
