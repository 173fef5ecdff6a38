"""Exception types shared across the package."""


class BmlabError(Exception):
    """Base class for all package errors."""


class BoundExceeded(BmlabError):
    """A search or enumeration exceeded its configured bound."""


class UnknownEdge(BmlabError):
    pass


class NotACycle(BmlabError):
    pass


class NotAWalk(BmlabError):
    pass


class ThetaViolation(BmlabError):
    """A proposed balanced set fails the theta property."""

    def __init__(self, message, theta=None, cycles=None):
        super().__init__(message)
        self.theta = theta
        self.cycles = cycles


class GraphMismatch(BmlabError):
    pass


class GroupMismatch(BmlabError):
    pass


class NotBalancingVertex(BmlabError):
    pass


class NotBalancedTriangle(BmlabError):
    pass


class NotTriad(BmlabError):
    pass


class NotTriangle(BmlabError):
    pass


class StructureMissing(BmlabError):
    """Required structure (balancing vertex, fat theta, ...) is absent."""


class BadGlue(BmlabError):
    pass


class GroundSetMismatch(BmlabError):
    pass


class ColumnLabelMismatch(BmlabError):
    pass


class MatroidMismatch(BmlabError):
    pass


class NotVertically2Connected(BmlabError):
    pass


class UnsupportedField(BmlabError):
    """A routine that needs a finite field was given one with no order q."""


class NoBasis(BmlabError):
    pass


class UnknownClaim(BmlabError):
    pass


class ParseError(BmlabError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
