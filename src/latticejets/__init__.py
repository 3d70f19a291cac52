"""Exact-arithmetic toolkit for jets of monomial embeddings, lattice widths,
special toric surfaces, and nef-but-not-semiample screening of weighted
projective 3-spaces.

Importing the package loads none of its layers: each submodule, and each
re-exported name below, is imported on first access (PEP 562).
"""

__version__ = "0.1.0"

# re-exported name -> the submodule that defines it
_EXPORTS = {
    "Direction": "polytope",
    "LatticePolytope": "polytope",
    "PointConfig": "polytope",
    "WeightVector": "wps",
    "reproduce_table": "wps",
}
_SUBMODULES = frozenset({"base_locus", "cli", "errors", "jets", "linalg", "oracles",
                         "poly", "polytope", "screen", "surface2", "wps"})

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule in this namespace; __import__ rather than
        # importlib.import_module, which ``python -X importtime`` does not report
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in _EXPORTS:
        value = getattr(__getattr__(_EXPORTS[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
