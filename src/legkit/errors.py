"""Exception taxonomy shared by all legkit modules.

Every domain error raised by the library derives from LegkitError so CLI
and library callers can catch one base class.  Names mirror the failure
they report; parse failures carry a line number.
"""


class LegkitError(Exception):
    """Base class for all legkit domain errors."""


class ParseError(LegkitError):
    """Malformed input: front or tree text, or a front built in code from
    parts of the wrong type (an unknown event kind, a bare-tuple event, a
    list where the diagram keeps a tuple, an orientation override that is
    not a (component, +1 or -1) pair of ints) or from no event at all."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidPosition(LegkitError):
    """Event position out of range for the current strand count."""


class OpenDiagram(LegkitError):
    """Strand count nonzero after the last event."""


class NotClosed(LegkitError):
    """Component reference invalid or component not a closed cycle."""


class SingleComponent(LegkitError):
    """Linking data requested for a single-component front."""


class BadLocator(LegkitError):
    """Arc locator does not name an existing arc, or a foliation locus is
    none of None, BOUNDARY and INTERIOR."""


class NoZigzag(LegkitError):
    """No zig-zag found at the given locator."""


class BadDirection(LegkitError):
    """Direction or pushoff side outside its allowed values, or an
    orientation of another front than the one it is applied to."""


class GeometryDegenerate(LegkitError):
    """Realization or drawing parameters admit no generic picture."""


class DegenerateTangent(LegkitError):
    """Consecutive samples coincide; winding number undefined."""


class NotATree(LegkitError):
    """Edge set is not connected and acyclic."""


class BadSigning(LegkitError):
    """Adjacent vertices carry equal signs."""


class NotAcceptable(LegkitError):
    """Embedding violates one of the four acceptability conditions."""

    def __init__(self, condition, message):
        self.condition = condition
        super().__init__(f"acceptability condition {condition} failed: {message}")


class SignMismatch(LegkitError):
    """Operands of a move or elimination have incompatible signs."""


class NotEndEdge(LegkitError):
    """Edge is not an end edge."""


class OutOfRange(LegkitError):
    """(tb, r) outside the admissible unknot range."""


class BadInvariants(LegkitError):
    """(tb, r) invalid for the requested foliation pipeline."""


class NotConnected(LegkitError):
    """Singularities not joined by a separatrix."""


class BadLeaves(LegkitError):
    """Leaf references invalid for a conversion."""


class PatternMismatch(LegkitError):
    """Local foliation pattern does not match the rewrite rule."""


class NotEllipticForm(LegkitError):
    """State is not in elliptic form."""


class TightnessViolation(LegkitError):
    """Rewrite would close a same-sign separatrix cycle (limit cycle)."""


class NotOvertwisted(LegkitError):
    """Operation requires an overtwisted ambient structure."""


class ZeroSlope(LegkitError):
    """Complement torus data undefined for slope zero."""


class DimensionMismatch(LegkitError):
    """Self-linking vector and linking matrix sizes disagree."""
