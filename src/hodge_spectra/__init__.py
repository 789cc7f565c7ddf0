"""Spectral laboratory for clamped-plate, buckling, Dirichlet and absolute
eigenvalue problems of the componentwise Hodge Laplacian on flat boxes,
plus closed-form ball spectra from Bessel zeros and an inequality battery.

This module is loaded by every command, so it holds only what they all
share: the thread cap, the problem kinds, the default tolerance and the
bases of the record types.  The ball-spectrum names of `bessel` are
exported lazily (PEP 562), so a command that never reads them never loads
`bessel`.
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


class _Record:
    """Base of the package's record types, which write their own `__init__`:
    `dataclasses` would generate and compile one per class at import.

    A record's fields are its annotated class attributes, in declaration
    order.  Its `__init__` passes their values to this one, in that order,
    then validates them.  Records of one type are equal when their fields
    are, show their fields in their repr, and are unhashable.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *values):
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class _FrozenRecord(_Record):
    """A record whose attributes cannot be assigned or deleted once `__init__`
    has set them (`functools.cached_property` writes to the instance dict), and
    which is hashed by its fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


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
