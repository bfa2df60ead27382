"""Shared exception types for the solver suite."""


class GmmnError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(GmmnError):
    """An enumeration or search would exceed its configured size cap."""


class CandidateCapExceeded(CapExceeded):
    """Candidate M-path enumeration for the treewidth DP is too large."""


class WrongClass(GmmnError):
    """A solver was invoked on an instance outside its supported class."""


class NotATree(WrongClass):
    """Rooted-tree preparation requested for a non-tree intersection graph."""


class NotAPseudotree(WrongClass):
    """Pseudotree reduction requested for an unsupported graph."""


class TriangleFound(WrongClass):
    """The pseudotree cycle is a triangle, which the reduction cannot handle."""


class WidthCapExceeded(GmmnError):
    """No tree decomposition within the requested width cap was found."""


class NoInteriorSplitPoint(GmmnError):
    """A degenerate pair has no interior grid vertex to split at."""


class ForestAssertionFailed(GmmnError):
    """A derived instance of the cycle reduction is unexpectedly not a forest."""


class DegenerateHandledElsewhere(GmmnError):
    """Signals that a parent/child window needs the direct table fill."""


class Unreachable(GmmnError):
    """Longest-path query between nodes with no connecting path."""


class GenerationFailed(GmmnError):
    """The instance generator exhausted its retry budget."""


class CertificateFailed(GmmnError):
    """A solver's output does not meet the certificate it proved (a bug)."""


class OverflowRisk(GmmnError):
    """Input coordinates are large enough that length sums could overflow."""
