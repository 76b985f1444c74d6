"""Exception types shared across the simulator, each with its exit code.

``exit_code`` is a class attribute: every :class:`ProxyIfmError` is an
engine error (3) unless it derives from :class:`ValidationError` (2), an
input rejected at the boundary.  The CLI returns ``exc.exit_code``, so
this module is the one place the mapping lives.
"""


class ProxyIfmError(Exception):
    """Base class for all errors raised by this package (exit 3)."""

    exit_code = 3


class ValidationError(ProxyIfmError):
    """Bad input: a scenario file, wiring, matrix or argument (exit 2)."""

    exit_code = 2


# -- validation (exit 2) --

class ParseError(ValidationError):
    """A scenario or input file could not be parsed; carries line/column
    when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownSchemaVersionError(ValidationError):
    """The scenario file declares a schema this build does not understand."""


class UnresolvedElementIdError(ValidationError):
    """A scenario refers to an element id that does not exist."""


class CyclicGraphError(ValidationError):
    """The element graph contains a spatial cycle."""


class DanglingPortError(ValidationError):
    """A wire is produced but never consumed, or consumed but never produced."""


class NonUnitaryBeamSplitterError(ValidationError):
    """A beam-splitter matrix fails the unitarity tolerance."""


class NonUnitaryInputError(ValidationError):
    """reck_decompose was handed a matrix that is not unitary."""


class DimensionTooLargeError(ValidationError):
    """Decomposition requested beyond the supported matrix size."""


class DimensionMismatchError(ValidationError):
    """Two matrices that should share a dimension do not."""


class ZeroPulsesError(ValidationError):
    """A pulse-train source needs at least one pulse."""


# -- engine (exit 3) --

class BinOverflowError(ProxyIfmError):
    """A pulse, delay or obstacle gate reaches past the circuit's time bins."""


class NoLossTerminalError(ProxyIfmError):
    """The conditional no-interaction figure found no delayed arm to probe."""


class EngineSourceMismatchError(ProxyIfmError):
    """The requested engine cannot consume the scenario's source type."""


class CutoffTooSmallError(ProxyIfmError):
    """The truncation cutoff leaves too large a probability deficit."""


class StateTooLargeError(ProxyIfmError):
    """A dense map or truncated Fock space exceeds its size bound."""


class NonUnitaryError(ProxyIfmError):
    """A mode-transformation matrix fails the unitarity tolerance."""


class IoError(ProxyIfmError):
    """Result emission failed at the filesystem level."""
