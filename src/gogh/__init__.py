"""Decision toolkit for graphs of free/dihedral groups over cyclic edges.

Given such a graph of groups, decide whether its fundamental group is
hierarchically hyperbolic and emit independently checkable certificates:
a verified linear parametrization per edge class on success, an explicit
non-Euclidean almost Baumslag-Solitar witness otherwise.
"""

from .balance import (
    Balanced,
    Unbalanced,
    build_groupoid,
    edge_balanced,
    group_balanced,
)
from .certify import BSWitness, DistortionCertificate, almost_bs_witness, distortion_certificate
from .conjgraph import ConjugacyGraph, EdgeClass, build_conjugacy_graph, edge_classes
from .dihedral import DihedralElement, dmul, dpow
from .freewords import (
    RootData,
    cyclic_reduce,
    free_reduce,
    primitive_root,
)
from .model import (
    DihedralInfinite,
    EdgeRecord,
    Free,
    GoghError,
    GraphOfGroups,
    ValidationError,
    VertexWord,
    make_graph,
    spanning_tree,
    validate,
)
from .parametrize import (
    HHG,
    LinearParametrization,
    NotHHG,
    hhg_verdict,
    verify_parametrization,
)
from .words import (
    PathWord,
    are_equal,
    britton_reduce,
    is_trivial,
    pinch_membership,
    to_path_form,
)

__all__ = [
    "Balanced",
    "Unbalanced",
    "build_groupoid",
    "edge_balanced",
    "group_balanced",
    "BSWitness",
    "DistortionCertificate",
    "almost_bs_witness",
    "distortion_certificate",
    "ConjugacyGraph",
    "EdgeClass",
    "build_conjugacy_graph",
    "edge_classes",
    "DihedralElement",
    "dmul",
    "dpow",
    "RootData",
    "cyclic_reduce",
    "free_reduce",
    "primitive_root",
    "DihedralInfinite",
    "EdgeRecord",
    "Free",
    "GoghError",
    "GraphOfGroups",
    "ValidationError",
    "VertexWord",
    "make_graph",
    "spanning_tree",
    "validate",
    "HHG",
    "LinearParametrization",
    "NotHHG",
    "hhg_verdict",
    "verify_parametrization",
    "PathWord",
    "are_equal",
    "britton_reduce",
    "is_trivial",
    "pinch_membership",
    "to_path_form",
]
