"""Exact-arithmetic toolkit for complete simplicial toric varieties with
finite symmetric-group actions: integer linear algebra, fans, class groups,
group actions on fans, the equivariant contraction loop for smooth toric
surfaces, and the named fan families of the accompanying classification.
"""

from .errors import ParseError, PreconditionError, ToricError
from .fan import Fan, FanReport, Lattice, build_surface_fan, fan_isomorphism, make_fan, validate_fan
from .intlin import FGAbelianGroup, IntMatrix, SNFResult, cokernel_group, kernel_basis, smith_normal_form
from .symmetry import GaloisDatum, GroupAction, fan_automorphisms

__all__ = [
    "Fan",
    "FanReport",
    "FGAbelianGroup",
    "GaloisDatum",
    "GroupAction",
    "IntMatrix",
    "Lattice",
    "ParseError",
    "PreconditionError",
    "SNFResult",
    "ToricError",
    "build_surface_fan",
    "cokernel_group",
    "fan_automorphisms",
    "fan_isomorphism",
    "kernel_basis",
    "make_fan",
    "smith_normal_form",
    "validate_fan",
]

__version__ = "0.1.0"
