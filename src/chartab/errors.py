"""Exception hierarchy for chartab."""


class ChartabError(Exception):
    """Base class for all chartab-specific errors."""


class FormatError(ChartabError, ValueError):
    """Malformed input data: group spec files, table files, serialized values."""


class CycleSyntaxError(FormatError):
    """Cycle notation that does not parse to a permutation."""


class UnknownGroupError(ChartabError, KeyError):
    """Requested group name is not in the catalog."""

    def __str__(self):
        return f"unknown group {self.args[0]!r}"


class CapExceededError(ChartabError):
    """A group enumeration exceeded its element cap."""


class OrderMismatchError(ChartabError, ValueError):
    """Cyclotomic operands live in fields of different root-of-unity order."""


class NonIntegralValueError(ChartabError, ValueError):
    """A value expected to be a rational integer (or algebraic integer) is not."""


class InconsistentSequenceError(ChartabError, ValueError):
    """A multiplicity sequence admits no valid class-size spectrum."""


class TableIntegrityError(ChartabError):
    """A character table (or a quantity derived from one) failed an exact self-check."""
