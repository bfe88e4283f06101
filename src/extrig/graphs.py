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
_DIGITS = str.maketrans(STAR, "2")   # a word's digits as characters that sort like them


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
        return (self.base, self.word.translate(_DIGITS))

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


# edge field, kind, and whether each end is a point
_EDGE_KINDS = (("edges_pp", "pp", (True, True)), ("edges_ph", "ph", (True, False)),
               ("edges_hh_angle", "hh-angle", (False, False)),
               ("edges_hh_par", "hh-par", (False, False)))
_EDGE_FIELDS = tuple(name for name, _, _ in _EDGE_KINDS)
_POINT_ENDS = np.array([ends for _, _, ends in _EDGE_KINDS])
_NO_ENDS = np.zeros((0, 2), dtype=np.intp)
_NO_ENDS.flags.writeable = False


@dataclass(frozen=True)
class PHGraph:
    """Decorated point-hyperplane graph, optionally with extrusion structure.

    The vertex words are the one record of the extrusion structure:
    :attr:`steps` and :attr:`fixed_sets` are read off them.  Each edge is
    stored with its ends in vertex order, edges sorted by them.  Each edge
    end's position is looked up once; checking, sorting and the action are
    integer array work.  A bad edge raises for the first offender in field
    order, named as given.
    """

    points: tuple
    hyperplanes: tuple
    edges_pp: tuple = ()
    edges_ph: tuple = ()
    edges_hh_angle: tuple = ()
    edges_hh_par: tuple = ()
    extrusion_order: int = 0
    _vertices: tuple = field(init=False, repr=False, compare=False, default=())
    _position: dict = field(init=False, repr=False, compare=False, default=None)
    _classes: tuple = field(init=False, repr=False, compare=False, default=())
    _class_index: dict = field(init=False, repr=False, compare=False, default=None)
    _permutations: dict = field(init=False, repr=False, compare=False, default=None)
    _base_rank: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _steps: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _edge_ends: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(sorted(self.points, key=Vertex.sort_key)))
        object.__setattr__(self, "hyperplanes", tuple(sorted(self.hyperplanes, key=Vertex.sort_key)))
        verts = self.points + self.hyperplanes
        # a word outside {0, 1, *} raises the digit table's KeyError, before any other check
        digits = list(map(_CHAR_ORDER.__getitem__, "".join([v.word for v in verts])))
        if set(self.points) & set(self.hyperplanes):
            raise ValueError("a vertex cannot be both point and hyperplane")
        t = self.extrusion_order
        for v in verts:
            if len(v.word) != t:
                raise ValueError(f"vertex {v} word length differs from extrusion order {t}")
        object.__setattr__(self, "_vertices", verts)
        object.__setattr__(self, "_position", {v: i for i, v in enumerate(verts)})
        ends = self._edge_positions()
        for name, pairs in zip(_EDGE_FIELDS, ends):
            cols = pairs.T.tolist() if len(pairs) else ((), ())
            object.__setattr__(self, name, tuple(zip(*(map(verts.__getitem__, c) for c in cols))))
        object.__setattr__(self, "_edge_ends", ends)
        object.__setattr__(self, "_classes", self._compute_parallel_classes())
        object.__setattr__(self, "_class_index",
                           {v: i for i, cls in enumerate(self._classes) for v in cls})
        for u, v in self.edges_hh_angle:
            if self._class_index[u] == self._class_index[v]:
                raise ValueError(f"angle edge {u}-{v} joins hyperplanes in one parallel class")
        object.__setattr__(self, "_permutations", self._action_permutations(ends, digits))

    # -- construction checks -------------------------------------------------

    def _edge_positions(self) -> tuple:
        """Check every edge; per edge field, its sorted read-only (m, 2) array of end positions."""
        fields = [getattr(self, name) for name in _EDGE_FIELDS]
        counts = [len(edges) for edges in fields]
        pos, n, size = self._position, len(self.points), len(self._vertices)
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(fields))
        given = np.fromiter(map(pos.get, flat, itertools.repeat(-1)), np.intp).reshape(-1, 2)
        kind = np.arange(4).repeat(counts)
        pairs = np.sort(given, axis=1)
        bad = (pairs[:, 0] < 0) | (pairs[:, 0] == pairs[:, 1]) | ((given < n) != _POINT_ENDS[kind]).any(1)
        # pp, ph and hh pairs never meet, so hh-angle and hh-par share a key range
        key = (np.minimum(kind, 2) * size + pairs[:, 0]) * size + pairs[:, 1]
        order = key.argsort(kind="stable")
        repeats = order[1:][key[order[1:]] == key[order[:-1]]]   # each after its first
        if repeats.size or bad.any():
            first = np.concatenate([bad.nonzero()[0], repeats]).min()
            u, v = next(itertools.islice(itertools.chain.from_iterable(fields), first, None))
            raise ValueError(f"self-loop at {u}" if u == v else f"edge {u}-{v} has endpoints "
                             f"inconsistent with kind {_EDGE_KINDS[kind[first]][1]}"
                             if bad[first] else f"duplicate edge {u}-{v}")
        pairs = pairs[order[kind[order].argsort(kind="stable")]]   # by field, then by ends
        pairs.flags.writeable = False
        cut = list(itertools.accumulate(counts, initial=0))
        return tuple(pairs[a:b] if b > a else _NO_ENDS for a, b in zip(cut, cut[1:]))

    def _action_permutations(self, ends, digits) -> dict:
        """Permutation of the vertex positions by each group element.

        Composed from one permutation per direction, which must map the
        vertices onto themselves and preserve every edge set (ValueError).
        A vertex's key is the rank of its base and its word read in base 3
        (``digits``: 0, 1, * as 0, 1, 2); flipping direction h adds its
        :attr:`steps` entry times the place value of digit h.  Keeps the
        base ranks and the steps on the graph.
        """
        t, verts = self.extrusion_order, self._vertices
        n = len(verts)
        perms = {(): np.arange(n)}
        digits = np.array(digits, dtype=np.int64).reshape(n, t)
        steps = np.where(digits == 2, 0, 1 - 2 * digits)
        steps.flags.writeable = False
        object.__setattr__(self, "_steps", steps)
        if t:
            # |bases| 3^t fits an int64 long before the 2^t permutations fit memory
            ids = {b: i for i, b in enumerate(sorted({v.base for v in verts}))}
            rank = np.fromiter((ids[v.base] for v in verts), np.intp, n)
            place = 3 ** np.arange(t - 1, -1, -1, dtype=np.int64)
            keys = rank * 3 ** t + digits @ place
            rank.flags.writeable = False
            object.__setattr__(self, "_base_rank", rank)
            # a key shared by repeated vertices finds the last one, as a dict would
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            # every edge as one key (field, lower end, upper end): sorted, as the fields are
            field = np.repeat(np.arange(4), [len(pairs) for pairs in ends]) * n
            pairs = np.concatenate(ends)
            edge_keys = (field + pairs[:, 0]) * n + pairs[:, 1]
        for h in range(t):
            image = keys + steps[:, h] * place[h]
            at = np.searchsorted(sorted_keys, image, side="right") - 1
            gen = np.where((at >= 0) & (sorted_keys[at] == image), order[at], -1).astype(np.intp)
            if np.any(gen < 0):
                raise ValueError(f"extrusion action for direction {h} does not permute the vertices")
            image = np.sort(gen[pairs], axis=1)
            if not np.array_equal(np.sort((field + image[:, 0]) * n + image[:, 1]), edge_keys):
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

    def copy_coordinate(self, u, v) -> np.ndarray:
        """Per pair of vertex positions ``u[i]``, ``v[i]``, the word position in
        which the two differ when they are copies of one base vertex, t when
        their bases differ.  ValueError for copies differing in another number
        of positions."""
        t = self.extrusion_order
        out = np.full(len(u), t, dtype=np.intp)
        if not t:
            return out
        rank, steps = self._base_rank, self._steps
        copies = np.flatnonzero(rank[u] == rank[v])
        differ = steps[u[copies]] != steps[v[copies]]
        count = differ.sum(axis=1)
        bad = np.flatnonzero(count != 1)
        if bad.size:
            i = copies[bad[0]]
            raise ValueError(f"edge {self._vertices[u[i]]}-{self._vertices[v[i]]} joins "
                             f"copies differing in {count[bad[0]]} coordinates")
        out[copies] = np.argmax(differ, axis=1)
        return out

    @property
    def steps(self) -> np.ndarray:
        """Read-only int (|V|, t) array, rows in :attr:`vertices` order: per
        word position, +1 for a 0, -1 for a 1 and 0 for a star.  Flipping
        direction h moves a vertex's copy by ``steps[:, h]`` times tau_h."""
        return self._steps

    @property
    def fixed_sets(self) -> tuple:
        """Per direction h, the frozenset of base identifiers of the
        hyperplanes contracted along h: those with a star in word position h."""
        stars = self._steps[len(self.points):] == 0
        return tuple(frozenset(w.base for w, s in zip(self.hyperplanes, col) if s)
                     for col in stars.T)


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
    elements = range(2 ** t)
    plain = [format(k, f"0{t}b") for k in elements]
    masks = [int("".join("1" if v.base in fs else "0" for fs in fixed_sets), 2) for v in base.vertices]
    copies = []   # per base vertex, its copy at each element
    for v, mask in zip(base.vertices, masks):
        own = [Vertex(v.base, "".join(STAR if s == "1" else c for c, s in zip(w, plain[mask]))
                      if mask else w) for w in plain]
        copies.append([own[k & ~mask] for k in elements] if mask else own)
    nb = len(base.points)
    points = [w for cv in copies[:nb] for w in cv]
    hyperplanes = [cv[k] for cv, mask in zip(copies[nb:], masks[nb:]) for k in elements
                   if not k & mask]

    # the copies of an edge repeat along the directions contracting both ends
    carried = {}
    for name, pairs in zip(_EDGE_FIELDS, base.edge_ends):
        edges = carried[name] = []
        for iu, iv in pairs.tolist():
            both, cu, cv = masks[iu] & masks[iv], copies[iu], copies[iv]
            edges += [(cu[k], cv[k]) for k in elements if not k & both] if both else zip(cu, cv)
    # copy-joining edges, skipping contracted coordinates
    for i, (mask, cv) in enumerate(zip(masks, copies)):
        joined = carried["edges_pp" if i < nb else "edges_hh_par"]
        for b in (1 << (t - 1 - h) for h in range(t)):
            if not mask & b:
                joined += [(cv[k], cv[k | b]) for k in elements if not k & (mask | b)]

    return PHGraph(points=tuple(points), hyperplanes=tuple(hyperplanes), extrusion_order=t,
                   **{k: tuple(e) for k, e in carried.items()})


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
                   extrusion_order=graph.extrusion_order, **kwargs)


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
                   extrusion_order=graph.extrusion_order)
