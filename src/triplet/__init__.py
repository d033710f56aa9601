"""Exact representation-theoretic data of the W_{p,q} triplet construction.

Conformal weights, Kac-module structure, sl2-type fusion, hexagon-constrained
F-matrices, explicit Clebsch-Gordan linear algebra, and graded decompositions,
all over exact rational and root-of-unity arithmetic.
"""

from .exactnum import Phase, Rat, phase_from_weight, rat_str
from .virasoro import (
    ObjLabel,
    Params,
    VirLabel,
    canonical_label,
    central_charge,
    conformal_weight,
    kac_dual_k11,
    kac_k,
    simple_l,
)

__all__ = [
    "ObjLabel",
    "Params",
    "Phase",
    "Rat",
    "VirLabel",
    "canonical_label",
    "central_charge",
    "conformal_weight",
    "kac_dual_k11",
    "kac_k",
    "phase_from_weight",
    "rat_str",
    "simple_l",
]

__version__ = "0.1.0"
