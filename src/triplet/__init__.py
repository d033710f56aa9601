"""Exact representation-theoretic data of the W_{p,q} triplet construction.

Conformal weights, Kac-module structure, sl2-type fusion, hexagon-constrained
F-matrices, explicit Clebsch-Gordan linear algebra, and graded decompositions,
all over exact rational and root-of-unity arithmetic.

The names below are resolved on first use (PEP 562), so ``import triplet``
and ``import triplet.cli`` load no layer, and no `fractions`, until a name
of one is read.
"""

# Each exported name, with the module it comes from.
_EXPORTS = {
    "ObjLabel": "virasoro",
    "Params": "virasoro",
    "Phase": "braidfmat",
    "VirLabel": "virasoro",
    "canonical_label": "virasoro",
    "central_charge": "virasoro",
    "conformal_weight": "virasoro",
    "kac_dual_k11": "virasoro",
    "kac_k": "virasoro",
    "simple_l": "virasoro",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
