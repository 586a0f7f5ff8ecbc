"""Pin of the public surface: what ``qhsl`` exports and each callable's signature.

Simplifications below the package API must leave these unchanged.  The
tables were generated from the package; regenerate them only for an
intended change of the public API.  Exception classes are listed by name
only, since they take their signature from the builtin ``Exception``.
"""

import inspect

import qhsl

GATE_FACTORIES = ("ry", "rz", "r", "h", "x", "i", "set0", "set1", "u1", "u2")

EXPORTS = [
    "AVERAGE", "AncillaBudgetError", "ChromaState", "ChromaStatistics", "Circuit",
    "ConfigurationError", "ControlConflictError", "ControlPattern", "DENSE_QUBIT_BUDGET",
    "DecodedChroma", "FormatError", "Gate", "HslColor", "InconsistentStatisticsError",
    "Instruction", "LightnessCode", "MANUAL", "MAX_IMAGE_N", "NonBasisLightnessError",
    "NonBasisTargetError", "NonClassicalGateError", "PHASE_STEP", "PixelAddress",
    "PseudocolorMap", "QhslError", "QhslImage", "QubitBudgetError", "RegionConstraint",
    "RegisterLayout", "RegisterOverlapError", "RetrievalReport", "RetrievedPixel", "RgbColor",
    "SATURATION_HIGH", "SATURATION_LOW", "StateVector", "StructuredState", "add_phase",
    "apply_gate", "canonical_phase", "comparator", "comparator_region_circuit", "decode_chroma",
    "encode_chroma", "estimate_phi", "estimate_theta", "format_circuit", "format_image",
    "format_report", "hsl_to_rgb", "hue_shift", "hue_shift_circuit", "image_from_rgb_array",
    "image_to_rgb_array", "interval_control_patterns", "interval_rotation_angles",
    "invert_color", "invert_color_circuit", "joint_probabilities", "leq_control_patterns",
    "lightness_add", "lightness_add_circuit", "lightness_sub", "lightness_sub_circuit",
    "lightness_to_fraction", "load_circuit", "load_constant", "load_dump", "measure_chroma",
    "measure_lightness", "measure_probabilities", "parse_circuit", "parse_image",
    "parse_report", "pixel_setter_circuit", "position_superposition_circuit",
    "preparation_circuit", "pseudocolor", "pseudocolor_circuit", "quantize_lightness",
    "read_mapping_table", "read_ppm", "read_pseudocolor_map", "read_raster",
    "region_control_patterns", "retrieve_image", "rgb_to_hsl", "ripple_adder", "run_circuit",
    "run_on_basis", "sample_shots", "saturating_add_circuit", "saturating_sub_circuit",
    "saturation_shift", "saturation_shift_circuit", "save_circuit", "save_dump", "save_image",
    "save_report", "simulate_preparation", "structured_state", "validate_table", "write_ppm",
    "write_raster",
]

SIGNATURES = {
    'ChromaState': "(theta: 'float', phi: 'float') -> None",
    'ChromaStatistics':
        "(k: 'float', v: 'float', w: 'float', shots_per_basis: 'int | None' = None) -> None",
    'Circuit': "(num_qubits: 'int', instructions: 'tuple[Instruction, ...]' = ()) -> None",
    'ControlPattern': "(terms: 'tuple[tuple[int, int], ...]' = ()) -> None",
    'DecodedChroma':
        "(hue: ForwardRef('float'), saturation: ForwardRef('float'), hue_undefined: ForwardRef('bool'))",
    'Gate': "(kind: 'str', params: 'tuple[float, ...]' = ()) -> None",
    'HslColor': "(hue: 'float', saturation: 'float', lightness: 'float') -> None",
    'Instruction':
        "(gate: 'Gate', target: 'int', controls: 'ControlPattern' = ControlPattern(terms=())) -> None",
    'LightnessCode':
        "(q: 'int', bits: 'int', mapping: 'str' = 'average', table: 'tuple[float, ...] | None' = None) -> None",
    'PixelAddress': "(y: 'int', x: 'int') -> None",
    'PseudocolorMap': "(entries: 'tuple[tuple[int, int, float], ...]') -> None",
    'QhslImage': "(n: 'int', q: 'int', pixels, table_source: 'str | None' = None)",
    'RegionConstraint':
        "(lightness: 'tuple[int, int] | None' = None, y_range: 'tuple[int, int] | None' = None, x_range: 'tuple[int, int] | None' = None) -> None",
    'RegisterLayout': "(n: 'int', q: 'int') -> None",
    'RetrievalReport':
        "(n: 'int', q: 'int', mode: 'str', shots_per_basis: 'int | None', seed: 'int | None', branch: 'str', pixels)",
    'RetrievedPixel':
        "(y: 'int', x: 'int', theta: 'float', phi: 'float', hue: 'float', saturation: 'float', code: 'int', lightness: 'float', hue_undefined: 'bool', theta_3sigma: 'float' = 0.0, phi_3sigma: 'float' = 0.0) -> None",
    'RgbColor': "(r: 'int', g: 'int', b: 'int') -> None",
    'StateVector': "(num_qubits: 'int', amplitudes: 'np.ndarray')",
    'StructuredState': "(img: 'QhslImage')",
    'add_phase': "(phi: 'float', delta: 'float') -> 'float'",
    'apply_gate':
        "(state: 'StateVector', gate: 'Gate', target: 'int', controls: 'ControlPattern' = ControlPattern(terms=())) -> 'StateVector'",
    'canonical_phase': "(phi: 'float') -> 'float'",
    'comparator':
        "(width: 'int', a: 'Sequence[int]', b: 'Sequence[int]', greater: 'int', less: 'int', work: 'Sequence[int]', num_qubits: 'int | None' = None) -> 'Circuit'",
    'comparator_region_circuit':
        "(layout: 'RegisterLayout', region: 'RegionConstraint', body: 'Circuit', qubit_budget: 'int | None' = None) -> 'Circuit'",
    'decode_chroma': "(state: 'ChromaState') -> 'DecodedChroma'",
    'encode_chroma': "(color: 'HslColor') -> 'ChromaState'",
    'estimate_phi': "(stats: 'ChromaStatistics') -> 'tuple[float, bool]'",
    'estimate_theta': "(stats: 'ChromaStatistics') -> 'float'",
    'format_circuit': "(circuit: 'Circuit') -> 'str'",
    'format_image': "(img: 'QhslImage') -> 'str'",
    'format_report': "(report: 'RetrievalReport') -> 'str'",
    'hsl_to_rgb': "(color: 'HslColor') -> 'RgbColor'",
    'hue_shift':
        "(img: 'QhslImage', dphi: 'float', region: 'RegionConstraint | None' = None) -> 'QhslImage'",
    'hue_shift_circuit':
        "(layout: 'RegisterLayout', dphi: 'float', region: 'RegionConstraint | None' = None) -> 'Circuit'",
    'image_from_rgb_array':
        "(rgb: 'np.ndarray', n: 'int', q: 'int', mapping: 'str' = 'average', table=None, table_source: 'str | None' = None) -> 'QhslImage'",
    'image_to_rgb_array': "(img: 'QhslImage') -> 'np.ndarray'",
    'interval_control_patterns': "(lo: 'int', hi: 'int', width: 'int') -> 'list[ControlPattern]'",
    'interval_rotation_angles': "(pmap: 'PseudocolorMap') -> 'tuple[float, ...]'",
    'invert_color': "(img: 'QhslImage') -> 'QhslImage'",
    'invert_color_circuit': "(layout: 'RegisterLayout') -> 'Circuit'",
    'joint_probabilities': "(state: 'StateVector', qubits: 'Sequence[int]') -> 'np.ndarray'",
    'leq_control_patterns': "(threshold: 'int', width: 'int') -> 'list[ControlPattern]'",
    'lightness_add':
        "(img: 'QhslImage', k: 'int', region: 'RegionConstraint | None' = None) -> 'QhslImage'",
    'lightness_add_circuit': "(layout: 'RegisterLayout', k: 'int') -> 'Circuit'",
    'lightness_sub':
        "(img: 'QhslImage', k: 'int', region: 'RegionConstraint | None' = None) -> 'QhslImage'",
    'lightness_sub_circuit': "(layout: 'RegisterLayout', k: 'int') -> 'Circuit'",
    'lightness_to_fraction': "(code: 'LightnessCode') -> 'float'",
    'load_circuit': "(path) -> 'Circuit'",
    'load_constant':
        "(value: 'int', qubits: 'Sequence[int]', num_qubits: 'int | None' = None) -> 'Circuit'",
    'load_dump': "(path) -> 'QhslImage'",
    'measure_chroma':
        "(source, mode: 'str' = 'exact', shots: 'int | None' = None, seed=None, rng: 'np.random.Generator | None' = None) -> 'ChromaStatistics'",
    'measure_lightness':
        "(source, y: 'int', x: 'int', layout: 'RegisterLayout | None' = None) -> 'int'",
    'measure_probabilities': "(state: 'StateVector', qubit: 'int') -> 'tuple[float, float]'",
    'parse_circuit': "(text: 'str') -> 'Circuit'",
    'parse_image': "(text: 'str', base_dir=None) -> 'QhslImage'",
    'parse_report': "(text: 'str') -> 'dict'",
    'pixel_setter_circuit':
        "(layout: 'RegisterLayout', addr: 'PixelAddress', dphi: 'float', dtheta: 'float', lightness: 'int') -> 'Circuit'",
    'position_superposition_circuit': "(layout: 'RegisterLayout') -> 'Circuit'",
    'preparation_circuit': "(img: 'QhslImage') -> 'Circuit'",
    'pseudocolor': "(img: 'QhslImage', pmap: 'PseudocolorMap') -> 'QhslImage'",
    'pseudocolor_circuit':
        "(img: 'QhslImage', pmap: 'PseudocolorMap', selector: 'str' = 'patterns', qubit_budget: 'int | None' = None) -> 'Circuit'",
    'quantize_lightness':
        "(fraction: 'float', q: 'int', mapping: 'str' = 'average', table=None) -> 'LightnessCode'",
    'read_mapping_table': "(path) -> 'tuple[float, ...]'",
    'read_ppm': "(path) -> 'np.ndarray'",
    'read_pseudocolor_map': "(path) -> 'PseudocolorMap'",
    'read_raster': "(path) -> 'np.ndarray'",
    'region_control_patterns':
        "(layout: 'RegisterLayout', region: 'RegionConstraint') -> 'list[ControlPattern]'",
    'retrieve_image':
        "(source, mode: 'str' = 'exact', *, shots: 'int | None' = None, seed: 'int | None' = None, branch: 'str' = 'rejection', layout: 'RegisterLayout | None' = None, mapping: 'str | None' = None, table=None) -> 'RetrievalReport'",
    'rgb_to_hsl': "(color: 'RgbColor') -> 'HslColor'",
    'ripple_adder':
        "(width: 'int', a: 'Sequence[int]', b: 'Sequence[int]', carry_out: 'int', work: 'Sequence[int]', num_qubits: 'int | None' = None) -> 'Circuit'",
    'run_circuit': "(initial: 'StateVector', circuit: 'Circuit') -> 'StateVector'",
    'run_on_basis': "(circuit: 'Circuit', basis: 'int') -> 'int'",
    'sample_shots':
        "(state: 'StateVector', qubits: 'Sequence[int]', shots: 'int', seed=None) -> 'dict[int, int]'",
    'saturating_add_circuit':
        "(width: 'int', value: 'int', target: 'Sequence[int]', addend: 'Sequence[int]', carry: 'int', work: 'Sequence[int]', num_qubits: 'int | None' = None) -> 'Circuit'",
    'saturating_sub_circuit':
        "(width: 'int', value: 'int', target: 'Sequence[int]', addend: 'Sequence[int]', carry: 'int', work: 'Sequence[int]', num_qubits: 'int | None' = None) -> 'Circuit'",
    'saturation_shift':
        "(img: 'QhslImage', dtheta: 'float', region: 'RegionConstraint | None' = None) -> 'QhslImage'",
    'saturation_shift_circuit':
        "(img: 'QhslImage', dtheta: 'float', region: 'RegionConstraint | None' = None) -> 'Circuit'",
    'save_circuit': "(path, circuit: 'Circuit') -> 'None'",
    'save_dump': "(path, img: 'QhslImage') -> 'None'",
    'save_image': "(path, source) -> 'None'",
    'save_report': "(path, report: 'RetrievalReport') -> 'None'",
    'simulate_preparation': "(img: 'QhslImage', qubit_budget: 'int' = 26) -> 'StateVector'",
    'structured_state': "(img: 'QhslImage') -> 'StructuredState'",
    'validate_table': "(table, q: 'int') -> 'tuple[float, ...]'",
    'write_ppm': "(path, rgb: 'np.ndarray') -> 'None'",
    'write_raster': "(path, rgb: 'np.ndarray') -> 'None'",
    'Gate.ry': '(dtheta: \'float\') -> "\'Gate\'"',
    'Gate.rz': '(dphi: \'float\') -> "\'Gate\'"',
    'Gate.r': '(dphi: \'float\', dtheta: \'float\') -> "\'Gate\'"',
    'Gate.h': '() -> "\'Gate\'"',
    'Gate.x': '() -> "\'Gate\'"',
    'Gate.i': '() -> "\'Gate\'"',
    'Gate.set0': '() -> "\'Gate\'"',
    'Gate.set1': '() -> "\'Gate\'"',
    'Gate.u1': '() -> "\'Gate\'"',
    'Gate.u2': '() -> "\'Gate\'"',
}


def exported():
    return {name: value for name, value in vars(qhsl).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def test_exported_names():
    assert sorted(exported()) == EXPORTS


def test_signatures():
    found = {name: str(inspect.signature(value)) for name, value in exported().items()
             if callable(value) and not (inspect.isclass(value) and issubclass(value, BaseException))}
    found.update({f"Gate.{name}": str(inspect.signature(getattr(qhsl.Gate, name)))
                  for name in GATE_FACTORIES})
    assert found == SIGNATURES
