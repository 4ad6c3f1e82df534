"""Exception types shared across the package.

The CLI rejects bad flags, unknown keys and unparseable values while it
parses arguments (exit 2).  Any exception a scenario raises while it runs,
ArgumentError included (e.g. `--set deltas=0.001`), is a runtime failure:
exit 3, with a FAILED marker in that scenario's directory.
"""


class GmtLabError(Exception):
    """Base class for errors raised by this package."""


class ArgumentError(GmtLabError, ValueError):
    """Invalid argument: dimension mismatch, out-of-range parameter, bad key."""


class SingularityError(GmtLabError):
    """Evaluation at a singular configuration (e.g. distance phase at x == y)."""


class EmptyLevelError(GmtLabError):
    """A level-set query produced no points / no band cells at all."""


class FitError(GmtLabError):
    """A regression had too few or degenerate data points."""


class GridMismatchError(GmtLabError, ValueError):
    """Raster algebra attempted across different grids."""
