"""Decision toolkit for graphs of free/dihedral groups over cyclic edges.

Given such a graph of groups, decide whether its fundamental group is
hierarchically hyperbolic and emit independently checkable certificates:
a verified linear parametrization per edge class on success, an explicit
non-Euclidean almost Baumslag-Solitar witness otherwise.

The package root binds no names and loads no submodule: import each name
from the module that defines it, such as ``hhg_verdict`` from
``gogh.parametrize`` and ``parse`` from ``gogh.cli``.
"""
