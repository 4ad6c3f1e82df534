"""gmt-lab: a numerical laboratory for curvature-driven measure estimates.

Modules:
    phase      phase function catalogue and rotational-curvature determinants
    fractal    Cantor-type sets, separated lattices, Perron trees, dimension fits
    raster     occupancy-grid measure engine for level-set neighborhoods
    spectral   dyadic frequency decompositions, mollification, oscillatory decay
    reporting  experiment report containers and their JSON/CSV serialization
    scenarios  named end-to-end experiments with pass/fail verdicts
    cli        the `gmt-lab` command-line entry point
"""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    EmptyLevelError,
    FitError,
    GmtLabError,
    GridMismatchError,
    SingularityError,
)

__all__ = [
    "ArgumentError",
    "EmptyLevelError",
    "FitError",
    "GmtLabError",
    "GridMismatchError",
    "SingularityError",
    "__version__",
]
