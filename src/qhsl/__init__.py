"""Quantum HSL image model: simulated encoding, transformation, retrieval.

Images live on 2*n position qubits, q lightness qubits, and one
chromaticity qubit whose Bloch angles carry hue and saturation.  The
package provides the color codec, a small statevector simulator plus an
exact structured backend, circuit builders for color transforms and
pseudocolor recoloring, measurement-statistics retrieval, and file
formats with a command line front end.
"""

from .color import (
    AVERAGE,
    MANUAL,
    PHASE_STEP,
    SATURATION_HIGH,
    SATURATION_LOW,
    ChromaState,
    DecodedChroma,
    HslColor,
    LightnessCode,
    RgbColor,
    add_phase,
    canonical_phase,
    decode_chroma,
    encode_chroma,
    hsl_to_rgb,
    lightness_to_fraction,
    quantize_lightness,
    rgb_to_hsl,
    validate_table,
)
from .errors import (
    AncillaBudgetError,
    ConfigurationError,
    ControlConflictError,
    FormatError,
    InconsistentStatisticsError,
    NonBasisLightnessError,
    NonBasisTargetError,
    NonClassicalGateError,
    QhslError,
    QubitBudgetError,
    RegisterOverlapError,
)
from .sim import (
    Circuit,
    ControlPattern,
    Gate,
    Instruction,
    StateVector,
    apply_gate,
    comparator,
    joint_probabilities,
    load_constant,
    measure_probabilities,
    ripple_adder,
    run_circuit,
    run_on_basis,
    sample_shots,
    saturating_add_circuit,
    saturating_sub_circuit,
)
from .image import (
    DENSE_QUBIT_BUDGET,
    MAX_IMAGE_N,
    PixelAddress,
    QhslImage,
    RegisterLayout,
    StructuredState,
    pixel_setter_circuit,
    position_superposition_circuit,
    preparation_circuit,
    simulate_preparation,
    structured_state,
)
from .retrieval import (
    ChromaStatistics,
    RetrievalReport,
    RetrievedPixel,
    estimate_phi,
    estimate_theta,
    measure_chroma,
    measure_lightness,
    retrieve_image,
)
from .transforms import (
    PseudocolorMap,
    RegionConstraint,
    comparator_region_circuit,
    hue_shift,
    hue_shift_circuit,
    interval_control_patterns,
    interval_rotation_angles,
    invert_color,
    invert_color_circuit,
    leq_control_patterns,
    lightness_add,
    lightness_add_circuit,
    lightness_sub,
    lightness_sub_circuit,
    pseudocolor,
    pseudocolor_circuit,
    region_control_patterns,
    saturation_shift,
    saturation_shift_circuit,
)
from .formats import (
    format_circuit,
    format_image,
    format_report,
    image_from_rgb_array,
    image_to_rgb_array,
    load_circuit,
    load_dump,
    parse_circuit,
    parse_image,
    parse_report,
    read_mapping_table,
    read_ppm,
    read_pseudocolor_map,
    read_raster,
    save_circuit,
    save_dump,
    save_image,
    save_report,
    write_ppm,
    write_raster,
)

__version__ = "0.1.0"
