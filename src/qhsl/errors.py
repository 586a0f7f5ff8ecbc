"""Exception types shared across the package."""


class QhslError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(QhslError):
    """A mapping table or option set is missing or malformed."""


class RegisterOverlapError(QhslError):
    """Arithmetic circuit registers must not share qubits."""


class ControlConflictError(QhslError):
    """A gate's target qubit also appears in its control pattern."""


class NonBasisTargetError(QhslError):
    """A set gate met a target qubit in superposition on the controlled subspace."""


class NonClassicalGateError(QhslError):
    """Basis-path evaluation only supports X/I/SET instructions."""


class NonBasisLightnessError(QhslError):
    """Lightness readout requires the register to hold a computational-basis value."""


class InconsistentStatisticsError(QhslError):
    """Measurement statistics lie outside their physically possible range."""


class QubitBudgetError(QhslError):
    """A size budget was exceeded: a dense register above the qubit budget,
    or an image grid above the pixel limit."""


class AncillaBudgetError(QhslError):
    """A circuit construction needs more workspace qubits than allowed."""


class FormatError(QhslError):
    """A text or binary input could not be parsed."""
