"""Exact engine for affine crystals of rectangular tableaux: energy-graded
generating polynomials of restricted paths and their alternating Weyl-sum
evaluations, all in exact integer arithmetic."""

from . import bosonic
from .bosonic import bosonic_report, commutation_hypothesis_warnings
from .kostka import (
    CrystalSpec,
    kostka_classical,
    kostka_level,
    multiplicity_oracle,
)
from .laurent import LaurentPoly
from .paths import Path, format_path, parse_path
from .signature import CertificateError
from .tableaux import RectShape, Tableau, format_tableau, parse_tableau
from .weights import LevelWeight

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "CrystalSpec",
    "LaurentPoly",
    "LevelWeight",
    "Path",
    "RectShape",
    "Tableau",
    "bosonic_report",
    "bosonic_via_straightening",
    "commutation_hypothesis_warnings",
    "format_path",
    "format_tableau",
    "kostka_classical",
    "kostka_level",
    "level_one_identity",
    "level_zero_identity",
    "level_zero_pairing",
    "multiplicity_oracle",
    "parse_path",
    "parse_tableau",
]


def __getattr__(name: str):
    """The names of bosonic.MOVED, which bosonic imports on first use."""
    if name not in bosonic.MOVED:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(bosonic, name)
