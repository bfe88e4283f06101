"""Decorated point-hyperplane graphs and the Z2^t extrusion action.

Vertices carry a base identifier plus a word over ``{0, 1, *}``; a ``*``
marks a coordinate in which copies of a hyperplane vertex were contracted
(the hyperplane contains that extrusion direction).  The group Z2^t acts
by adding a 0/1 word to the vertex word, with ``* + 0 = * + 1 = *``.

Edge kinds:

* ``pp``        point-point distance constraint
* ``ph``        point-hyperplane distance constraint
* ``hh-angle``  angle constraint between non-parallel hyperplanes
* ``hh-par``    parallel constraint between hyperplanes in one class

Parallel classes are the connected components of the hyperplane vertices
under ``hh-par`` edges.

:class:`PHGraph` holds the action as permutations of vertex positions, built
from the words and validated once per graph (:meth:`PHGraph.permutation`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

STAR = "*"
_CHAR_ORDER = {"0": 0, "1": 1, STAR: 2}


@dataclass(frozen=True)
class Vertex:
    """A vertex of an extruded graph: base identifier plus 0/1/* word.

    The hash is computed once, at construction: vertices are dict keys in
    every position lookup.
    """

    base: str
    word: str = ""
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.base, self.word)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: the hash of a str differs between processes
        return Vertex, (self.base, self.word)

    def sort_key(self):
        return (self.base, tuple(_CHAR_ORDER[c] for c in self.word))

    @property
    def label(self) -> str:
        return self.base if not self.word else f"{self.base}|{self.word}"

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"Vertex({self.label!r})"


def parse_vertex(label: str) -> Vertex:
    """Inverse of :attr:`Vertex.label`; ValueError for a word outside {0, 1, *}."""
    if "|" in label:
        base, word = label.rsplit("|", 1)
        if not set(word) <= _CHAR_ORDER.keys():
            raise ValueError(f"vertex {label!r} has a word outside {{0, 1, *}}")
        return Vertex(base, word)
    return Vertex(label)


def group_elements(t: int) -> list:
    """All elements of Z2^t in lexicographic order (identity first)."""
    return [tuple(g) for g in itertools.product((0, 1), repeat=t)]


def subgroup_elements(t: int, active) -> list:
    """Elements of Z2^t supported on the ``active`` coordinate positions."""
    active = tuple(active)
    out = []
    for bits in itertools.product((0, 1), repeat=len(active)):
        g = [0] * t
        for pos, b in zip(active, bits):
            g[pos] = b
        out.append(tuple(g))
    return out


def word_add(word: str, gamma) -> str:
    """Word addition mod 2 with star absorption."""
    if len(word) != len(gamma):
        raise ValueError(f"word {word!r} has length {len(word)}, group element has {len(gamma)}")
    return "".join(c if c == STAR else str((int(c) + g) % 2) for c, g in zip(word, gamma))


# edge field, kind, and whether each end is a point
_EDGE_KINDS = (("edges_pp", "pp", (True, True)), ("edges_ph", "ph", (True, False)),
               ("edges_hh_angle", "hh-angle", (False, False)),
               ("edges_hh_par", "hh-par", (False, False)))
_EDGE_FIELDS = tuple(name for name, _, _ in _EDGE_KINDS)


@dataclass(frozen=True)
class PHGraph:
    """Decorated point-hyperplane graph, optionally with extrusion structure.

    ``fixed_sets[h]`` lists the base hyperplane identifiers whose copies were
    contracted along direction ``h`` (a ``*`` in word position ``h``).
    Each edge is stored with its ends in vertex order, edges sorted by them.
    """

    points: tuple
    hyperplanes: tuple
    edges_pp: tuple = ()
    edges_ph: tuple = ()
    edges_hh_angle: tuple = ()
    edges_hh_par: tuple = ()
    extrusion_order: int = 0
    fixed_sets: tuple = ()
    _vertices: tuple = field(init=False, repr=False, compare=False, default=())
    _position: dict = field(init=False, repr=False, compare=False, default=None)
    _classes: tuple = field(init=False, repr=False, compare=False, default=())
    _class_index: dict = field(init=False, repr=False, compare=False, default=None)
    _permutations: dict = field(init=False, repr=False, compare=False, default=None)
    _edge_ends: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted(self.points, key=Vertex.sort_key)))
        object.__setattr__(self, "hyperplanes", tuple(sorted(self.hyperplanes, key=Vertex.sort_key)))
        object.__setattr__(self, "fixed_sets", tuple(frozenset(fs) for fs in self.fixed_sets))
        if set(self.points) & set(self.hyperplanes):
            raise ValueError("a vertex cannot be both point and hyperplane")
        t = self.extrusion_order
        if len(self.fixed_sets) not in (0, t):
            raise ValueError("fixed_sets must have one entry per extrusion direction")
        verts = self.points + self.hyperplanes
        for v in verts:
            if len(v.word) != t:
                raise ValueError(f"vertex {v} word length differs from extrusion order {t}")
        object.__setattr__(self, "_vertices", verts)
        object.__setattr__(self, "_position", {v: i for i, v in enumerate(verts)})
        ends = self._edge_positions()
        for name, pairs in zip(_EDGE_FIELDS, ends):
            object.__setattr__(self, name, tuple((verts[a], verts[b]) for a, b in pairs))
            pairs.flags.writeable = False
        object.__setattr__(self, "_edge_ends", tuple(ends))
        object.__setattr__(self, "_classes", self._compute_parallel_classes())
        object.__setattr__(self, "_class_index",
                           {v: i for i, cls in enumerate(self._classes) for v in cls})
        for u, v in self.edges_hh_angle:
            if self._class_index[u] == self._class_index[v]:
                raise ValueError(f"angle edge {u}-{v} joins hyperplanes in one parallel class")
        object.__setattr__(self, "_permutations", self._action_permutations(ends))

    # -- construction checks -------------------------------------------------

    def _edge_positions(self) -> list:
        """Check every edge; per edge field, its sorted (m, 2) array of end positions."""
        pos, n = self._position, len(self.points)
        seen = set()
        out = []
        for name, kind, point_ends in _EDGE_KINDS:
            pairs = []
            for u, v in getattr(self, name):
                if u == v:
                    raise ValueError(f"self-loop at {u}")
                iu, iv = pos.get(u, -1), pos.get(v, -1)
                if min(iu, iv) < 0 or (iu < n, iv < n) != point_ends:
                    raise ValueError(f"edge {u}-{v} has endpoints inconsistent with kind {kind}")
                pair = (iu, iv) if iu < iv else (iv, iu)
                if pair in seen:
                    raise ValueError(f"duplicate edge {u}-{v}")
                seen.add(pair)
                pairs.append(pair)
            out.append(np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2))
        return out

    def _action_permutations(self, ends) -> dict:
        """Permutation of the vertex positions by each group element.

        Composed from one permutation per direction, which must map the
        vertices onto themselves and preserve every edge set (ValueError).
        A vertex's key is the rank of its base and its word read in base 3
        (digits 0, 1, * as 0, 1, 2); flipping direction h adds or subtracts
        the place value of digit h unless it is a star.
        """
        t, verts = self.extrusion_order, self._vertices
        n = len(verts)
        perms = {(): np.arange(n)}
        if t:
            # |bases| 3^t fits an int64 long before the 2^t permutations fit memory
            rank = np.unique([v.base for v in verts], return_inverse=True)[1].reshape(n)
            digits = np.array([[_CHAR_ORDER[c] for c in v.word] for v in verts],
                              dtype=np.int64).reshape(n, t)
            place = 3 ** np.arange(t - 1, -1, -1, dtype=np.int64)
            keys = rank * 3 ** t + digits @ place
            # a key shared by repeated vertices finds the last one, as a dict would
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
        for h in range(t):
            image = keys + np.where(digits[:, h] == 2, 0, 1 - 2 * digits[:, h]) * place[h]
            at = np.searchsorted(sorted_keys, image, side="right") - 1
            gen = np.where((at >= 0) & (sorted_keys[at] == image), order[at], -1).astype(np.intp)
            if np.any(gen < 0):
                raise ValueError(f"extrusion action for direction {h} does not permute the vertices")
            for pairs in ends:   # sorted and distinct: compare the sorted keys lo * n + hi
                image = np.sort(gen[pairs], axis=1)
                if not np.array_equal(np.sort(image @ (n, 1)), pairs @ (n, 1)):
                    raise ValueError(f"extrusion action for direction {h} does not preserve an edge set")
            perms = {g + (b,): gen[p] if b else p for g, p in perms.items() for b in (0, 1)}
        for p in perms.values():
            p.flags.writeable = False
        return perms

    # -- basic queries --------------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> tuple:
        return self.edges_pp + self.edges_ph + self.edges_hh_angle + self.edges_hh_par

    @property
    def edge_ends(self) -> tuple:
        """Per edge field (pp, ph, hh-angle, hh-par), a read-only (m, 2) int
        array: row i holds the positions in :attr:`vertices` of the ends of
        edge i, lower position first."""
        return self._edge_ends

    @property
    def position(self) -> dict:
        """Index of each vertex in :attr:`vertices` (points first, then hyperplanes)."""
        return self._position

    def is_point(self, v: Vertex) -> bool:
        return self._position.get(v, len(self.points)) < len(self.points)

    def _compute_parallel_classes(self):
        adj = {v: set() for v in self.hyperplanes}
        for u, v in self.edges_hh_par:
            adj[u].add(v)
            adj[v].add(u)
        classes, seen = [], set()
        for v in self.hyperplanes:
            if v in seen:
                continue
            comp, stack = [], [v]
            seen.add(v)
            while stack:
                w = stack.pop()
                comp.append(w)
                for x in adj[w]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            classes.append(tuple(sorted(comp, key=Vertex.sort_key)))
        return tuple(sorted(classes, key=lambda c: c[0].sort_key()))

    @property
    def parallel_classes(self) -> tuple:
        """Partition of the hyperplane vertices into parallel classes."""
        return self._classes

    @property
    def class_index(self) -> dict:
        return self._class_index

    # -- group action ----------------------------------------------------------

    def permutation(self, gamma) -> np.ndarray:
        """Read-only int array: ``vertices[perm[i]]`` is the image of ``vertices[i]`` under ``gamma``."""
        try:
            return self._permutations[tuple(gamma)]
        except KeyError:
            raise ValueError(f"{gamma} is not an element of Z2^{self.extrusion_order}") from None

    def act(self, gamma, v: Vertex) -> Vertex:
        """Image of vertex ``v`` under the extrusion action of ``gamma``."""
        i = self._position.get(v)
        if i is None:
            raise ValueError(f"vertex {v} not in graph")
        return self._vertices[self.permutation(gamma)[i]]

    @staticmethod
    def extrusion_coordinate(edge):
        """Position in which the endpoint words of a copy-joining edge differ.

        Returns None for edges whose endpoints have distinct bases.
        """
        u, v = edge
        if u.base != v.base:
            return None
        diff = [h for h, (a, b) in enumerate(zip(u.word, v.word)) if a != b]
        if len(diff) != 1:
            raise ValueError(f"edge {u}-{v} joins copies differing in {len(diff)} coordinates")
        return diff[0]


def extrusion_product(base: PHGraph, fixed_sets) -> PHGraph:
    """Iterated Cartesian product with K2, contracting hyperplane copies.

    ``fixed_sets[h]`` names the base hyperplane vertices contracted along
    direction ``h``; those vertices get a ``*`` in word position ``h``.
    Copy-joining edges between point copies go to ``pp``, those between
    hyperplane copies to ``hh-par`` (the copies share a normal).
    """
    if base.extrusion_order != 0:
        raise ValueError("extrusion_product expects a base graph without extrusion structure")
    fixed_sets = [frozenset(fs) for fs in fixed_sets]
    t = len(fixed_sets)
    hyper_bases = {v.base for v in base.hyperplanes}
    for h, fs in enumerate(fixed_sets):
        bad = fs - hyper_bases
        if bad:
            raise ValueError(f"fixed set {h} references non-hyperplane vertices: {sorted(bad)}")
    if t == 0:
        return base

    # copy k of a vertex sits at the bits of k, direction 0 the most significant;
    # a vertex contracted along the directions in its mask has one copy per
    # choice of the other bits: copy k is copy k & ~mask
    bit = [1 << (t - 1 - h) for h in range(t)]
    elements = range(2 ** t)
    words = {}   # mask -> the word of each copy

    def copies(v: Vertex) -> tuple:
        mask = sum(b for b, fs in zip(bit, fixed_sets) if v.base in fs)
        if mask not in words:
            words[mask] = ["".join(STAR if mask & b else "1" if k & b else "0" for b in bit)
                           for k in elements]
        out = []
        for k, word in zip(elements, words[mask]):
            out.append(out[k & ~mask] if k & mask else Vertex(v.base, word))
        return mask, out

    copy = {v: copies(v) for v in base.vertices}
    made = {v: [w for k, w in enumerate(cv) if not k & mask] for v, (mask, cv) in copy.items()}
    points = [w for v in made if base.is_point(v) for w in made[v]]
    hyperplanes = [w for v in made if not base.is_point(v) for w in made[v]]

    # the copies of an edge repeat along the directions contracting both ends
    carried = {}
    for name in _EDGE_FIELDS:
        carried[name] = []
        for u, v in getattr(base, name):
            (mu, cu), (mv, cv) = copy[u], copy[v]
            carried[name] += [(cu[k], cv[k]) for k in elements if not k & mu & mv]
    # copy-joining edges, skipping contracted coordinates
    for v, (mask, cv) in copy.items():
        joined = carried["edges_pp" if base.is_point(v) else "edges_hh_par"]
        for b in bit:
            if not mask & b:
                joined += [(cv[k], cv[k | b]) for k in elements if not k & (mask | b)]

    return PHGraph(points=tuple(points), hyperplanes=tuple(hyperplanes), extrusion_order=t,
                   fixed_sets=tuple(fixed_sets), **{k: tuple(e) for k, e in carried.items()})


def remove_edge(graph: PHGraph, u: Vertex, v: Vertex) -> PHGraph:
    """Copy of ``graph`` without the edge ``{u, v}`` (any kind)."""
    key = frozenset((u, v))
    found = False
    kwargs = {}
    for name in _EDGE_FIELDS:
        edges = tuple(e for e in getattr(graph, name) if frozenset(e) != key)
        if len(edges) != len(getattr(graph, name)):
            found = True
        kwargs[name] = edges
    if not found:
        raise ValueError(f"edge {u}-{v} not in graph")
    return PHGraph(points=graph.points, hyperplanes=graph.hyperplanes,
                   extrusion_order=graph.extrusion_order, fixed_sets=graph.fixed_sets, **kwargs)


def complete_decorated(graph: PHGraph) -> PHGraph:
    """Complete decorated graph on the same vertices.

    All point pairs, all point-hyperplane pairs, and all hyperplane pairs are
    joined; hyperplane pairs inside one parallel class of ``graph`` become
    parallel edges, pairs across classes become angle edges.
    """
    cls = graph.class_index
    pp = list(itertools.combinations(graph.points, 2))
    ph = [(p, w) for p in graph.points for w in graph.hyperplanes]
    angle, par = [], []
    for e in itertools.combinations(graph.hyperplanes, 2):
        (par if cls[e[0]] == cls[e[1]] else angle).append(e)
    return PHGraph(points=graph.points, hyperplanes=graph.hyperplanes,
                   edges_pp=tuple(pp), edges_ph=tuple(ph),
                   edges_hh_angle=tuple(angle), edges_hh_par=tuple(par),
                   extrusion_order=graph.extrusion_order, fixed_sets=graph.fixed_sets)
