"""Spectral laboratory for clamped-plate, buckling, Dirichlet and absolute
eigenvalue problems of the componentwise Hodge Laplacian on flat boxes,
plus closed-form ball spectra from Bessel zeros and an inequality battery.

This module is loaded by every command, so it holds only what they all
share: the thread cap, the problem kinds and the default tolerance.  The
ball-spectrum names of `bessel` are exported lazily (PEP 562), so a
command that never reads them never loads `bessel`.
"""

import enum as _enum
import os as _os

# Honor the thread cap before any BLAS-backed module is imported.
_cap = _os.environ.get("HODGE_SPECTRA_THREADS")
if _cap is not None:
    try:
        _threads = int(_cap)
    except ValueError:
        _threads = 0
    if _threads >= 1:
        for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ.setdefault(_var, str(_threads))
    else:
        import warnings

        warnings.warn(f"ignoring HODGE_SPECTRA_THREADS={_cap!r}: expected an integer >= 1")

__version__ = "0.1.0"

from .errors import BracketNotFound, FactorizationFailure, NumericalFailure  # noqa: E402

# the normwise backward error every certified pair must meet unless asked otherwise
DEFAULT_TOL = 1e-9


class ProblemKind(str, _enum.Enum):
    CLAMPED_PLATE = "clamped_plate"
    BUCKLING = "buckling"
    DIRICHLET_LAPLACE = "dirichlet_laplace"
    ABSOLUTE_LAPLACE = "absolute_laplace"

    @property
    def is_fourth_order(self) -> bool:
        return self in (ProblemKind.CLAMPED_PLATE, ProblemKind.BUCKLING)


_BESSEL_NAMES = frozenset({"BallSpectrum", "BesselOrder", "ZeroBracket", "ball_spectrum",
                           "bessel_i", "bessel_j", "first_zero_cross", "first_zero_j"})

__all__ = [
    "BallSpectrum",
    "BesselOrder",
    "ZeroBracket",
    "ball_spectrum",
    "bessel_i",
    "bessel_j",
    "first_zero_cross",
    "first_zero_j",
    "BracketNotFound",
    "FactorizationFailure",
    "NumericalFailure",
    "__version__",
]


def __getattr__(name: str):
    if name in _BESSEL_NAMES:
        from . import bessel

        return getattr(bessel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
