"""Directed graphs of evolution algebras and their vertex-set combinatorics.

The graph of an algebra has an edge i -> j exactly when the j-th coordinate of
the square of basis vector i is nonzero; it is row-finite and carries at most
one edge per ordered pair, so adjacency lists are all we store.

Vertex sets are ``frozenset`` instances over ``0..n-1``.  Wherever a family of
vertex sets is returned, it is sorted by the bitmask integer with bit ``i``
standing for vertex ``i``, which fixes a deterministic output order.

Paths are never materialised.  Reachability is one table of vertex masks, what
each vertex reaches, and its transpose; trees, components and strong
connectivity are read off them.  Hereditary sets are walked in bitmask order,
highest vertex first, one step per set, each node carrying the vertices its
exclusions bar; past the limit check each is its walk parent's | one tree, so
it may iterate out of index order.  Each table is O(n^2) mask operations.

Saturated hereditary sets come from the same walk, cut wherever the saturated
closure of the chosen vertices meets a barred one: every branch left holds
that closure, so at most n + 1 sets are tested per saturated set returned.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import chain, compress, count, islice, repeat

from .errors import EnumerationLimitError

__all__ = [
    "DEFAULT_ENUM_LIMIT",
    "Digraph",
    "associated_graph",
    "vertex_set_mask",
]

DEFAULT_ENUM_LIMIT = 10**6
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_DOT_KEYWORDS = frozenset(("node", "edge", "graph", "digraph", "subgraph", "strict"))


def vertex_set_mask(vertices) -> int:
    """Bitmask with bit i set for each vertex i; the canonical sort key."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _mask_to_frozenset(mask: int) -> frozenset:
    return frozenset(compress(count(), bin(mask)[:1:-1].encode().translate(_BITS)))


def _take(items, limit, family):
    """The items as a list; raises, naming ``family``, past ``limit`` (at least 1)."""
    cap = min(max(limit, 1), sys.maxsize - 1)  # islice takes no stop past maxsize
    out = list(islice(items, cap + 1))
    if len(out) > cap:
        raise EnumerationLimitError(f"more than {limit} {family}")
    return out


class Digraph:
    """A finite directed graph with at most one edge per ordered pair."""

    def __init__(self, n, out, labels=None):
        if n < 0:
            raise ValueError("negative vertex count")
        out = tuple(tuple(targets) for targets in out)
        if len(out) != n:
            raise ValueError(f"{len(out)} adjacency lists for {n} vertices")
        for i, targets in enumerate(out):
            for j in targets:
                if not isinstance(j, int):
                    raise ValueError(f"edge {i}->{j!r} does not end at an integer vertex")
            for j in sorted(targets):
                if not 0 <= j < n:
                    raise ValueError(f"edge {i}->{j} leaves the vertex range")
        self.n = n
        self._vertices = frozenset(range(n))
        self.out = tuple(tuple(sorted(set(targets))) for targets in out)
        self.labels = tuple(labels) if labels is not None else tuple(
            f"e{i + 1}" for i in range(n)
        )
        if len(self.labels) != n:
            raise ValueError("label count differs from vertex count")

    @classmethod
    def from_edges(cls, n, edges, labels=None):
        out = [[] for _ in range(n)]
        for i, j in edges:
            out[i].append(j)
        return cls(n, out, labels)

    def _check_vertices(self, vertices):
        vs = frozenset(vertices)  # 1.0 == 1, so the subset test alone lets floats in
        if vs <= self._vertices and all(map(isinstance, vs, repeat(int))):
            return vs
        for v in vs:
            if not isinstance(v, int):
                raise ValueError(f"vertex {v!r} is not an integer")
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return vs

    @property
    def edges(self):
        return tuple((i, j) for i in range(self.n) for j in self.out[i])

    @property
    def edge_count(self):
        return sum(len(t) for t in self.out)

    def sinks(self):
        return frozenset(i for i in range(self.n) if not self.out[i])

    def sources(self):
        return self._vertices - frozenset(chain.from_iterable(self.out))

    def bifurcations(self):
        return frozenset(i for i in range(self.n) if len(self.out[i]) >= 2)

    # -- reachability ------------------------------------------------------

    @cached_property
    def _reach_masks(self):
        """Vertex mask of everything reachable from each vertex, itself included.

        The graph's one reachability table, transposed in ``_reached_by``:
        Warshall's closure on vertex masks, O(n^2) mask ORs for n <= ``DIM_CAP``.
        """
        reach = [1 << i | vertex_set_mask(t) for i, t in enumerate(self.out)]
        for k in range(self.n):
            rk, bit = reach[k], 1 << k
            reach = [r | rk if r & bit else r for r in reach]
        return tuple(reach)

    @cached_property
    def _reached_by(self):
        """Vertex mask of everything reaching each vertex: ``_reach_masks`` transposed."""
        reach, n = self._reach_masks, self.n
        return tuple(vertex_set_mask(u for u in range(n) if reach[u] >> v & 1) for v in range(n))

    def tree(self, vertices):
        """All vertices reachable from the set, the set itself included."""
        reach = self._reach_masks
        m = 0
        for v in self._check_vertices(vertices):
            m |= reach[v]
        return _mask_to_frozenset(m)

    def is_hereditary(self, vertices):
        vs = self._check_vertices(vertices)
        return all(v in vs for u in vs for v in self.out[u])

    @cached_property
    def _feeder_masks(self):
        """``(bit of u, out-mask of u)`` for every vertex u with an edge."""
        return tuple((1 << u, vertex_set_mask(t)) for u, t in enumerate(self.out) if t)

    def is_saturated(self, vertices):
        mask = vertex_set_mask(self._check_vertices(vertices))
        for bit, targets in self._feeder_masks:
            if targets & mask == targets and not mask & bit:
                return False
        return True

    def _saturate(self, mask):
        """Least saturated superset of a mask: add every vertex whose nonempty
        out-mask lies inside, until none is left."""
        feeders = self._feeder_masks
        while True:
            before = mask
            for bit, targets in feeders:
                if targets & mask == targets:
                    mask |= bit
            if mask == before:
                return mask

    def saturated_closure(self, vertices):
        """Smallest saturated superset of a hereditary set; stays hereditary."""
        vs = self._check_vertices(vertices)
        if not self.is_hereditary(vs):
            raise ValueError("saturated closure requires a hereditary set")
        return _mask_to_frozenset(self._saturate(vertex_set_mask(vs)))

    # -- strongly connected components --------------------------------------

    @cached_property
    def _condensation(self):
        """Components in topological order plus the condensation DAG.

        Returns ``(components, dag_out)`` with components sorted so that every
        condensation edge goes from an earlier to a later entry, ties broken
        by smallest member vertex.  Both are read off the graph's two tables,
        ``_reach_masks`` and its transpose ``_reached_by``: a component is a
        class of mutual reachability, and the next one in the order is the
        component of the smallest vertex left that no vertex left outside that
        component reaches, which is Kahn's order with a min-heap.  That takes
        O(n^2) bit tests; n <= ``DIM_CAP`` for every algebra graph.
        """
        n, reach, reached_by = self.n, self._reach_masks, self._reached_by
        components = []
        left = (1 << n) - 1
        while left:
            v = next(
                v for v in range(n)
                if left >> v & 1 and not reached_by[v] & left & ~reach[v]
            )
            members = reach[v] & reached_by[v]
            components.append(_mask_to_frozenset(members))
            left &= ~members
        comp_of = {v: ci for ci, comp in enumerate(components) for v in comp}
        dag_out = tuple(
            frozenset(comp_of[j] for i in comp for j in self.out[i]) - {ci}
            for ci, comp in enumerate(components)
        )
        return tuple(components), dag_out

    def condensation(self):
        """The strongly connected components and the DAG between them."""
        return self._condensation

    def source_components(self):
        """Components that no condensation edge enters, in topological order."""
        components, dag_out = self._condensation
        entered = frozenset(chain.from_iterable(dag_out))
        return tuple(c for ci, c in enumerate(components) if ci not in entered)

    def maximal_hereditary_sets(self):
        """Complements of the source components, sorted by bitmask.

        A proper hereditary set is maximal exactly when its complement is a
        source component of the condensation.  A strongly connected graph is
        its own source component, so its one maximal set is the empty one.
        """
        complements = (self._vertices - c for c in self.source_components())
        return sorted(complements, key=vertex_set_mask)

    def _hereditary_masks(self, saturated=False, links=None):
        """Every hereditary set as a mask, in increasing order.

        Vertices are decided from n-1 down to 0, "out" before "in".  A node
        carries ``barred``, every vertex reaching one it excluded; each free
        vertex below the last added pushes a child, then is barred with all
        that reaches it, so each step yields a set.  With ``saturated`` a child
        is also cut when the saturated closure of its chosen vertices, itself
        hereditary, meets a barred vertex: every saturated set below holds that
        closure, and a kept node has it among its descendants, so every yield
        is one of the at most n + 1 nodes on the path to a saturated set.  With
        ``links``, two lists, each yield first appends its parent's yield
        position and the vertex v it added: its mask is the parent's | reach[v].
        """
        reach, reached_by = self._reach_masks, self._reached_by
        stack = [(self.n, 0, 0, 0)]
        k = 0
        while stack:
            added, inc, barred, parent = stack.pop()
            if links:
                links[0].append(parent)
                links[1].append(added)
            yield inc
            free = ((1 << added) - 1) & ~(inc | barred)
            while free:
                v = free.bit_length() - 1
                child = inc | reach[v]
                if not (saturated and self._saturate(child) & barred):
                    stack.append((v, child, barred, k))
                barred |= reached_by[v]
                free &= ~barred
            k += 1

    def hereditary_sets(self, limit=DEFAULT_ENUM_LIMIT):
        """Every hereditary vertex set, sorted by bitmask; may hit the limit.

        After the limit check on the walk's masks, each set is one union: its
        walk parent's set | the tree of the vertex it added, built on first
        use.  A limit below 1 acts as 1.
        """
        parents, added = links = [], []
        _take(self._hereditary_masks(links=links), limit, "hereditary sets")
        reach, trees, sets = self._reach_masks, [None] * self.n, [frozenset()]
        for p, v in zip(islice(parents, 1, None), islice(added, 1, None)):
            if trees[v] is None:
                trees[v] = _mask_to_frozenset(reach[v])
            sets.append(sets[p] | trees[v])
        return sets

    def hereditary_saturated_sets(self, limit=DEFAULT_ENUM_LIMIT):
        """Saturated hereditary sets, sorted by bitmask; may hit the limit.

        ``limit`` counts the sets returned.  Only the cut walk's candidates,
        at most n + 1 per saturated set, are built and tested; the limit is
        checked on the masks that pass, so the returned sets are built after
        it, a second time each.
        """
        masks = self._hereditary_masks(saturated=True)
        kept = (m for m in masks if self.is_saturated(_mask_to_frozenset(m)))
        return [_mask_to_frozenset(m) for m in _take(kept, limit, "hereditary saturated sets")]

    # -- simplicity and quotients -------------------------------------------

    def is_simple(self):
        """True when the only hereditary sets are empty and everything: there
        is a vertex, and every vertex reaches all of them."""
        full = (1 << self.n) - 1
        return self.n > 0 and all(r == full for r in self._reach_masks)

    def quotient(self, hereditary):
        """Remove a hereditary set; keep edges with both endpoints outside."""
        h = self._check_vertices(hereditary)
        if not self.is_hereditary(h):
            raise ValueError("quotient requires a hereditary set")
        keep = [v for v in range(self.n) if v not in h]
        renum = {v: i for i, v in enumerate(keep)}
        out = [
            [renum[w] for w in self.out[v] if w not in h]
            for v in keep
        ]
        return Digraph(len(keep), out, tuple(self.labels[v] for v in keep))

    def min_generating_vertex_set(self):
        """The least vertex set whose tree is every vertex, one vertex per
        source component (the lowest-numbered), with its size.  It need not
        generate the algebra: e1^2 = -e2+e3, e2^2 = -e1-e3, e3^2 = e3 over Q
        gives {e1}, and e1 generates only span{e1, e3-e2}."""
        witness = frozenset(min(c) for c in self.source_components())
        return len(witness), witness

    # -- output --------------------------------------------------------------

    def to_dot(self):
        def quoted(s):
            if (
                s
                and (s[0].isalpha() or s[0] == "_")
                and all(ch.isalnum() or ch == "_" for ch in s)
                and s.lower() not in _DOT_KEYWORDS
            ):
                return s
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph {"]
        for i in range(self.n):
            lines.append(f"  {quoted(self.labels[i])};")
        for i in range(self.n):
            for j in self.out[i]:
                lines.append(f"  {quoted(self.labels[i])} -> {quoted(self.labels[j])};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out == other.out and self.labels == other.labels

    def __hash__(self):
        return hash((self.n, self.out, self.labels))

    def __repr__(self):
        return f"Digraph(n={self.n}, edges={self.edge_count})"


def associated_graph(algebra) -> Digraph:
    """Graph with an edge i -> j when the square of e_i has j-th coordinate
    nonzero."""
    out = [
        [j for j, x in enumerate(sq) if x]
        for sq in algebra._int_squares
    ]
    return Digraph(algebra.n, out, algebra.labels)
