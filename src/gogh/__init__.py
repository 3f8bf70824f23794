"""Decision toolkit for graphs of free/dihedral groups over cyclic edges.

Given such a graph of groups, decide whether its fundamental group is
hierarchically hyperbolic and emit independently checkable certificates:
a verified linear parametrization per edge class on success, an explicit
non-Euclidean almost Baumslag-Solitar witness otherwise.

A bare ``import gogh`` loads no submodule: each exported name, and each
submodule read as ``gogh.<module>``, imports its home module on first use.
"""

import importlib

# each exported name -> the submodule that defines it
_HOMES = {
    "Balanced": "balance",
    "Unbalanced": "balance",
    "EdgeClass": "balance",
    "build_groupoid": "balance",
    "edge_balanced": "balance",
    "group_balanced": "balance",
    "BSWitness": "certify",
    "DistortionCertificate": "certify",
    "almost_bs_witness": "certify",
    "distortion_certificate": "certify",
    "ConjugacyGraph": "conjgraph",
    "build_conjugacy_graph": "conjgraph",
    "edge_classes": "conjgraph",
    "DihedralElement": "dihedral",
    "dmul": "dihedral",
    "dpow": "dihedral",
    "RootData": "freewords",
    "cyclic_reduce": "freewords",
    "free_reduce": "freewords",
    "primitive_root": "freewords",
    "DihedralInfinite": "model",
    "EdgeRecord": "model",
    "Free": "model",
    "GoghError": "model",
    "GraphOfGroups": "model",
    "ValidationError": "model",
    "VertexWord": "model",
    "make_graph": "model",
    "spanning_tree": "model",
    "validate": "model",
    "HHG": "parametrize",
    "LinearParametrization": "parametrize",
    "NotHHG": "parametrize",
    "hhg_verdict": "parametrize",
    "verify_parametrization": "parametrize",
    "PathWord": "words",
    "are_equal": "words",
    "britton_reduce": "words",
    "is_trivial": "words",
    "pinch_membership": "words",
    "to_path_form": "words",
}
_SUBMODULES = {*_HOMES.values(), "cli"}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home or name}")
    value = module if home is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
