"""secembed: a finite-alphabet workbench for joint watermark embedding,
encryption, and lossless composite-signal compression.

Two halves: single-letter achievable-region evaluation/optimization over an
auxiliary channel, and a small-blocklength simulation of the layered
random-coding construction with its counting audits.
"""

from .errors import (
    ConvergenceError,
    EmptyTypicalSetError,
    InfeasibleError,
    NumericalConsistencyError,
    ResourceCapError,
    ValidationError,
    WorkbenchError,
)
from .rd import RdCodebook, RdSolution, blahut_arimoto, build_rd_codebook, rd_curve, rd_encode
from .region import (
    AuxChannel,
    ConditionReport,
    RegionPoint,
    SystemSpec,
    attack_free_witness,
    compose_system,
    eval_extended,
    eval_lossless_region,
    eval_attack_free_region,
    eval_keyed_region,
    inherent_constraint_check,
    optimize_region,
    random_aux_channel,
    system_quantities,
)
from .tables import (
    Axis,
    DistTable,
    DistortionMeasure,
    compose_joint,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    expected_distortion,
    mutual_information,
)
from .typical import (
    SymbolSequence,
    enumerate_typical,
    epsilon_from_delta,
    epsilon_schedule,
    is_delta_typical,
    is_jointly_delta_typical,
    typical_distortion_bound,
    typical_set_probability,
    typicality_size_bounds,
)

__version__ = "0.1.0"
