"""Immutable model for finite graphs of groups.

Vertex groups are finitely generated free groups or the infinite dihedral
group; every edge group is infinite cyclic, described by the images of its
generator in the two endpoint groups.  Edges are stored once per
{e, reverse(e)} pair, in the orientation given at construction time; the
reversed orientation is addressed with sign -1.

A graph is valid by construction: ``__post_init__`` runs ``validate``, so
no consumer re-checks it.  Each graph carries an index, built by that
validation and kept for the life of the (immutable) graph: vertex-kind and
edge maps and the canonical BFS spanning tree with parents and depths.
Lookups, the spanning tree and tree paths are read from it.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter, ge, itemgetter


class GoghError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GoghError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, eq=True, uncompared=(), derived=()):
    """A frozen record with slots, built from the class's field annotations.

    The class is rebuilt with ``__slots__`` (so an instance has no
    ``__dict__``), ``__match_args__`` and these methods, written by one
    ``exec``:

    - ``__init__`` takes the fields in order, stores each through its
      slot's descriptor and then runs ``__post_init__``, if the class has
      one.  A descriptor store takes about two thirds of the time of an
      ``object.__setattr__``, and the parser and the certificates build
      records by the thousand.  A record field takes no default.
    - ``__eq__`` compares the tuples of the compared fields of two
      instances of one class, and ``__hash__`` hashes that tuple; with
      ``eq=False`` neither is written, and instances compare by identity.
    - ``__repr__`` reads ``Name(field=value, ...)``.
    - ``__reduce__`` rebuilds an instance through ``__init__``, so pickle
      and ``copy`` work and a derived field is built again.

    Assigning or deleting any name raises ``dataclasses.FrozenInstanceError``,
    imported only then.  Two kinds of field stay outside the record's
    value, and so out of ``==``, ``hash`` and ``repr``: those named in
    ``uncompared``, which ``__init__`` still takes, and those named in
    ``derived``, which it does not and ``__post_init__`` sets.
    """
    if cls is None:
        return partial(record, eq=eq, uncompared=uncompared, derived=derived)
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    params = tuple(name for name in fields if name not in derived)
    compared = tuple(name for name in params if name not in uncompared)
    value = _tuple("self.", compared)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in compared)
    lines = [
        f"def __init__(self{''.join(f', {name}' for name in params)}):",
        "    pass",
        *(f"    _set_{name}(self, {name})" for name in params),
        *(["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []),
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({shown})'",
        "def __reduce__(self):",
        f"    return self.__class__, {_tuple('self.', params)}",
    ]
    if eq:
        lines += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return {value} == {_tuple('other.', compared)}",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash({value})",
        ]
    namespace, methods = {}, {}  # the methods' globals, and the methods
    exec("\n".join(lines), namespace, methods)
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    body.update(methods, __slots__=fields, __match_args__=params)
    body.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    namespace.update((f"_set_{name}", cls.__dict__[name].__set__) for name in params)
    return cls


def _tuple(prefix: str, names) -> str:
    """Source of the tuple of the named attributes of one object."""
    items = [prefix + name for name in names]
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


@record
class Free:
    rank: int


@record
class DihedralInfinite:
    pass


VertexGroupKind = Free | DihedralInfinite

# Generators: positive 1-based integers for free groups, "r"/"s" for the
# infinite dihedral group (r of infinite order, s the reflection).
Gen = int | str

DIHEDRAL_R = "r"
DIHEDRAL_S = "s"


@record
class DihedralElement:
    """The element s^eps r^k of the infinite dihedral group, in normal form;
    ``dihedral`` holds its arithmetic."""

    eps: int  # 0 or 1
    k: int

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise ValueError(f"reflection exponent {self.eps!r} is not 0 or 1")

    @property
    def is_identity(self) -> bool:
        return self.eps == 0 and self.k == 0

    @property
    def infinite_order(self) -> bool:
        return self.eps == 0 and self.k != 0


@record
class VertexWord:
    """A word in one vertex group, as (generator, exponent) letters.

    Free words are stored freely reduced (adjacent letters use distinct
    generators, exponents nonzero).  Dihedral words are stored in the
    normal form s^eps r^k, i.e. at most one "s" letter first.
    """

    vertex: str
    letters: tuple[tuple[Gen, int], ...]

    @property
    def is_identity(self) -> bool:
        return not self.letters


@record
class EdgeRecord:
    """One oriented edge with the two images of the edge-group generator.

    The defining relation of the fundamental group is
    ``t_e * attachment_target * t_e^-1 = attachment_source``.
    """

    name: str
    source: str
    target: str
    attachment_source: VertexWord  # image in the source vertex group
    attachment_target: VertexWord  # image in the target vertex group


@record(derived=("index",))
class GraphOfGroups:
    vertices: tuple[tuple[str, VertexGroupKind], ...]  # sorted by id
    edges: tuple[EdgeRecord, ...]  # sorted by id
    # the GraphIndex that validation builds; not part of the graph's value
    index: GraphIndex

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", validate(self))

    def kind(self, vertex: str) -> VertexGroupKind:
        try:
            return self.index.kinds[vertex]
        except KeyError:
            raise ValidationError("UnknownVertex", f"no vertex named {vertex!r}") from None

    def edge(self, name: str) -> EdgeRecord:
        try:
            return self.index.edges[name]
        except KeyError:
            raise ValidationError("UnknownEdge", f"no edge named {name!r}") from None

    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.vertices)

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.edges)


def make_graph(vertices, edges) -> GraphOfGroups:
    """Build a graph with the canonical (sorted) storage order."""
    vs = tuple(sorted(vertices, key=itemgetter(0)))
    es = tuple(sorted(edges, key=attrgetter("name")))
    return GraphOfGroups(vs, es)


# -- signed edge helpers ----------------------------------------------------
#
# A signed edge (name, +1) is the stored orientation, (name, -1) its reverse.
# Reversing swaps source/target and the two attachment words.

SignedEdge = tuple[str, int]


def edge_endpoints(graph: GraphOfGroups, step: SignedEdge) -> tuple[str, str]:
    """(source, target) of a signed edge."""
    e = graph.edge(step[0])
    if step[1] == 1:
        return e.source, e.target
    return e.target, e.source


def edge_attachments(graph: GraphOfGroups, step: SignedEdge) -> tuple[VertexWord, VertexWord]:
    """(attachment at source, attachment at target) of a signed edge."""
    e = graph.edge(step[0])
    if step[1] == 1:
        return e.attachment_source, e.attachment_target
    return e.attachment_target, e.attachment_source


def reverse_step(step: SignedEdge) -> SignedEdge:
    return (step[0], -step[1])


# -- validation --------------------------------------------------------------


def _check_exponent(exp) -> None:
    if type(exp) is not int:  # a bool or an int subclass is no exponent
        raise ValidationError("UnknownGenerator", f"exponent {exp!r} is not an integer")
    if exp == 0:
        raise ValidationError("UnknownGenerator", "zero exponent letter")


def _check_letters(kind: VertexGroupKind, word: VertexWord) -> None:
    if type(word.letters) is not tuple:
        raise ValidationError("UnreducedWord", f"word in {word.vertex} is not a tuple of letters")
    if isinstance(kind, Free):
        prev = None
        for gen, exp in word.letters:
            if type(gen) is not int or not 1 <= gen <= kind.rank:
                raise ValidationError(
                    "UnknownGenerator",
                    f"generator {gen!r} not valid in free group of rank {kind.rank}",
                )
            _check_exponent(exp)
            if gen == prev:
                raise ValidationError(
                    "UnreducedWord", f"word in {word.vertex} is not freely reduced"
                )
            prev = gen
    else:
        for gen, exp in word.letters:
            if gen not in (DIHEDRAL_R, DIHEDRAL_S):
                raise ValidationError(
                    "UnknownGenerator", f"generator {gen!r} not valid in dihedral group"
                )
            _check_exponent(exp)
        shapes = tuple(g for g, _ in word.letters)
        s_power = any(gen == DIHEDRAL_S and exp != 1 for gen, exp in word.letters)
        if s_power or shapes not in ((), (DIHEDRAL_R,), (DIHEDRAL_S,), (DIHEDRAL_S, DIHEDRAL_R)):
            raise ValidationError(
                "UnreducedWord", f"dihedral word in {word.vertex} not in s^e r^k form"
            )


def _attachment_infinite_order(kind: VertexGroupKind, word: VertexWord) -> bool:
    if isinstance(kind, Free):
        return not word.is_identity
    # dihedral: infinite order exactly for (0, k), k != 0
    return len(word.letters) == 1 and word.letters[0][0] == DIHEDRAL_R


def _check_attachment(kind: VertexGroupKind, word: VertexWord, edge: str, side: str) -> None:
    """A one-letter attachment that is valid for its vertex (a tuple of one
    letter: a generator in 1..rank of a free group, or the rotation r of a
    dihedral one, with a nonzero int exponent) has infinite order and is
    accepted at once; every other word goes through the general checks.
    Generators, exponents and ranks are ints exactly, as the checkers read
    them: a bool is none."""
    letters = word.letters
    if type(letters) is tuple and len(letters) == 1:
        gen, exp = letters[0]
        if type(exp) is int and exp != 0 and (
            type(gen) is int and 1 <= gen <= kind.rank
            if isinstance(kind, Free)
            else gen == DIHEDRAL_R
        ):
            return
    _check_letters(kind, word)
    if not _attachment_infinite_order(kind, word):
        raise ValidationError(
            "FiniteOrderAttachment", f"edge {edge} {side} attachment has finite order"
        )


def validate(graph: GraphOfGroups) -> GraphIndex:
    """Check every model invariant; raise ValidationError on the first failure.
    Return the graph's index, built during the same walk, which reads each
    edge's fields once.

    An attachment's check reads only its vertex kind and its letters, so a
    letters tuple that passed at one kind object passes there again: the
    parser gives each one-letter image text one tuple and each rank one
    kind, and the walk checks such a pair once.  ``passed`` maps the id of
    a letters tuple to the kind it last passed at; ids, unlike values, tell
    1 from 1.0, and every tuple lives in the graph for the whole walk."""
    if not graph.vertices:
        raise ValidationError("DisconnectedGraph", "graph has no vertices")
    names = [name for name, _ in graph.vertices]
    if any(map(ge, names, names[1:])):
        raise ValidationError("DuplicateVertex", "vertex table not canonical")
    kinds = dict(graph.vertices)
    for name, kind in graph.vertices:
        if isinstance(kind, Free):
            if type(kind.rank) is not int or kind.rank < 1:
                raise ValidationError("RankZero", f"vertex {name} has rank {kind.rank!r}")
        elif not isinstance(kind, DihedralInfinite):
            raise ValidationError("UnknownVertex", f"vertex {name} has no vertex-group kind: {kind!r}")
    edge_names = [e.name for e in graph.edges]
    if any(map(ge, edge_names, edge_names[1:])):
        raise ValidationError("DuplicateEdge", "edge table not canonical")
    passed: dict[int, VertexGroupKind] = {}
    # the table is sorted: each list is in id order, stored orientation first
    adj: dict[str, list[tuple[str, str, int]]] = {v: [] for v in kinds}
    for e in graph.edges:
        name, source, target = e.name, e.source, e.target
        kind_s, kind_t = kinds.get(source), kinds.get(target)
        if kind_s is None or kind_t is None:
            missing = source if kind_s is None else target
            raise ValidationError("UnknownVertex", f"edge {name} touches {missing!r}")
        word_s, word_t = e.attachment_source, e.attachment_target
        if word_s.vertex != source or word_t.vertex != target:
            raise ValidationError(
                "UnknownVertex", f"edge {name} attachment tagged with wrong vertex"
            )
        if passed.get(id(word_s.letters)) is not kind_s:
            _check_attachment(kind_s, word_s, name, "source")
            passed[id(word_s.letters)] = kind_s
        if passed.get(id(word_t.letters)) is not kind_t:
            _check_attachment(kind_t, word_t, name, "target")
            passed[id(word_t.letters)] = kind_t
        adj[source].append((target, name, 1))
        adj[target].append((source, name, -1))
    index = GraphIndex(kinds, dict(zip(edge_names, graph.edges)), adj)
    if len(index.depth) != len(names):
        raise ValidationError("DisconnectedGraph", "underlying graph is not connected")
    return index


class GraphIndex:
    """Lookup maps and the canonical BFS spanning tree of one graph.

    The tree is rooted at the lexicographically least vertex and explores
    incident edges in lexicographic id order, stored orientation first, so
    it is a pure function of the graph content.  ``parents`` maps each
    non-root vertex reached to (parent vertex, signed edge parent->vertex)
    in BFS order; ``depth`` covers the root too.  ``validate`` builds the
    maps and the adjacency lists it reads, (neighbour, edge, sign) per end.
    """

    def __init__(self, kinds, edges, adj):
        self.kinds = kinds
        self.edges = edges
        self.parents = parents = {}
        root = min(kinds)  # validate rejects an empty graph before indexing it
        self.depth = depth = {root: 0}
        queue = [root]
        for v in queue:  # the list grows as it is read: a FIFO queue
            d = depth[v] + 1
            for w, name, sign in adj[v]:
                if w not in depth:
                    depth[w] = d
                    parents[w] = (v, (name, sign))
                    queue.append(w)
        self.tree = frozenset(edge for _, (edge, _) in parents.values())


def spanning_tree(graph: GraphOfGroups) -> frozenset[str]:
    """Edge ids of the canonical BFS spanning tree (see GraphIndex)."""
    return graph.index.tree


def tree_steps(graph: GraphOfGroups, start: str, end: str) -> tuple[SignedEdge, ...]:
    """Signed edges of the spanning-tree path from start to end."""
    parents, depth = graph.index.parents, graph.index.depth
    up: list[SignedEdge] = []
    down: list[SignedEdge] = []
    while start != end:
        if depth[start] >= depth[end]:
            start, step = parents[start]
            up.append(reverse_step(step))
        else:
            end, step = parents[end]
            down.append(step)
    return tuple(up + down[::-1])
