"""Spectral laboratory for clamped-plate, buckling, Dirichlet and absolute
eigenvalue problems of the componentwise Hodge Laplacian on flat boxes,
plus closed-form ball spectra from Bessel zeros and an inequality battery."""

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

from .bessel import (  # noqa: E402
    BallSpectrum,
    BesselOrder,
    ZeroBracket,
    ball_spectrum,
    bessel_i,
    bessel_j,
    first_zero_cross,
    first_zero_j,
)
from .errors import BracketNotFound, FactorizationFailure, NumericalFailure  # noqa: E402

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
