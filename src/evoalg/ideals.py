"""Ideals of an evolution algebra and their vertex-set counterparts.

The two directions of the correspondence:

* ``ideal_from_hereditary``: a hereditary vertex set H spans the ideal with
  basis ``{e_i : i in H}``; this is always an ideal admitting a natural basis
  that extends to the whole algebra.
* ``Ideal.hereditary_vertices``: the set of basis indices whose square lies in
  the ideal; always hereditary, and it contains every sink.

An ideal has the *absorption property* when ``x A inside I`` forces ``x in I``;
for evolution algebras this is equivalent to the ideal being exactly the span
of the basis vertices carried by its hereditary set.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import linalg
from .linalg import Subspace, rref, support

__all__ = [
    "Ideal",
    "find_proper_nonzero_ideal",
    "hereditary_from_ideal",
    "ideal_closure",
    "ideal_from_hereditary",
    "is_ideal",
    "maximal_ideal_cover_check",
    "maximal_ideals_report",
]

CRITERION_HYPERPLANE = "hyperplane_over_square_span"
CRITERION_MAX_HEREDITARY = "maximal_hereditary_set"


def is_ideal(algebra, subspace):
    """Closure test: the square of every index in the support of the basis
    must lie back in the subspace.  That single condition already gives both
    ``A·S`` and ``S·S`` inside ``S``, because all products land in spans of
    squares over supports."""
    if subspace.ambient_dim != algebra.n or subspace.field != algebra.field:
        raise ValueError("subspace does not match the algebra")
    touched = set()
    for row in subspace.basis:
        touched |= support(row)
    return all(subspace.contains(algebra.squares[i]) for i in touched)


class Ideal:
    """An ideal, held as a canonical subspace of its algebra."""

    def __init__(self, algebra, subspace, _validated=False):
        if subspace.ambient_dim != algebra.n or subspace.field != algebra.field:
            raise ValueError("subspace does not match the algebra")
        if not _validated and not is_ideal(algebra, subspace):
            raise ValueError("subspace is not closed under multiplication")
        self.algebra = algebra
        self.subspace = subspace

    @property
    def dim(self):
        return self.subspace.dim

    @property
    def codim(self):
        return self.algebra.n - self.subspace.dim

    @property
    def is_zero(self):
        return self.subspace.is_zero

    @property
    def is_proper(self):
        return not self.subspace.is_full

    def contains(self, vec):
        return self.subspace.contains(vec)

    @cached_property
    def hereditary_vertices(self):
        """Indices whose square lies in the ideal; always hereditary."""
        return frozenset(
            i
            for i in range(self.algebra.n)
            if self.subspace.contains(self.algebra.squares[i])
        )

    def basis_vertices(self):
        """Indices whose unit vector lies in the ideal; a subset of
        ``hereditary_vertices``, with equality exactly for absorption.

        In a reduced echelon basis the coordinate at pivot ``c`` of a member
        is its coefficient on the row of ``c``, so ``e_i`` is a member exactly
        when ``i`` is a pivot whose row is ``e_i``.
        """
        s = self.subspace
        return frozenset(
            c for row, c in zip(s.basis, s.pivots) if support(row) == {c}
        )

    def has_absorption(self):
        """True when the ideal equals the span of its hereditary vertices.

        That span is a coordinate subspace, so the ideal must be the span of
        its basis vertices B, and a square lies in span(B) exactly when its
        support lies in B.
        """
        b = self.basis_vertices()
        squares = self.algebra.squares
        return len(b) == self.dim and b == frozenset(
            i for i, sq in enumerate(squares) if support(sq) <= b
        )

    def is_spanned_by_basis_vertices(self):
        """Sufficient witness for extendable natural bases: the ideal is the
        span of the unit vectors it contains."""
        return len(self.basis_vertices()) == self.dim

    def is_maximal(self):
        """Maximality of a proper ideal.

        Either the ideal is a hyperplane containing the square span, or it is
        the vertex span of a maximal hereditary set and together with the
        square span fills the algebra.
        """
        crit = self.maximality_criterion()
        return crit is not None

    def maximality_criterion(self):
        if not self.is_proper:
            raise ValueError("maximality is only defined for proper ideals")
        A = self.algebra
        sq = A.square_span
        if self.subspace.contains_subspace(sq):
            return CRITERION_HYPERPLANE if self.codim == 1 else None
        if not self.has_absorption():
            return None
        if self.hereditary_vertices not in A.graph.maximal_hereditary_sets():
            return None
        if self.subspace.sum(sq).is_full:
            return CRITERION_MAX_HEREDITARY
        return None

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.algebra == other.algebra and self.subspace == other.subspace

    def __hash__(self):
        return hash((self.algebra, self.subspace))

    def __repr__(self):
        return f"Ideal(dim={self.dim}, ambient={self.algebra.n})"


def _vertex_span(algebra, vertices):
    """span{e_i : i in vertices}; its reduced echelon basis is those unit
    vectors in index order, pivoted at their own indices."""
    pivots = tuple(sorted(vertices))
    basis = tuple(algebra.unit(i) for i in pivots)
    return Subspace(algebra.field, algebra.n, basis, pivots)


def ideal_from_hereditary(algebra, hereditary) -> Ideal:
    """The span of the unit vectors of a hereditary set, as an ideal."""
    h = frozenset(hereditary)
    if not algebra.graph.is_hereditary(h):
        raise ValueError("vertex set is not hereditary")
    return Ideal(algebra, _vertex_span(algebra, h), _validated=True)


def hereditary_from_ideal(algebra, subspace) -> frozenset:
    """The hereditary vertex set of an ideal given as a subspace."""
    if not is_ideal(algebra, subspace):
        raise ValueError("subspace is not an ideal")
    return Ideal(algebra, subspace, _validated=True).hereditary_vertices


def ideal_closure(algebra, generators) -> Ideal:
    """Smallest ideal containing the generators.

    Repeatedly adjoin the squares of every index in the column support of the
    current basis; the dimension grows strictly each round, so at most ``n``
    rounds run.
    """
    n = algebra.n
    span = rref(algebra.field, n, list(generators))
    while True:
        touched = set()
        for row in span.basis:
            touched |= support(row)
        extra = [
            algebra.squares[i]
            for i in sorted(touched)
            if not span.contains(algebra.squares[i])
        ]
        if not extra:
            return Ideal(algebra, span, _validated=True)
        span = rref(algebra.field, n, list(span.basis) + extra)


def maximal_ideal_cover_check(algebra, ideal: Ideal) -> bool:
    """Two facts about a maximal ideal, verified directly.

    For every basis vertex e outside the ideal, the tree of e together with
    the hereditary vertices covers all vertices; and when the codimension is
    not one, the hereditary vertices coincide with the basis vertices inside
    the ideal.
    """
    if not ideal.is_maximal():
        raise ValueError("cover check requires a maximal ideal")
    A = algebra
    everything = frozenset(range(A.n))
    h = ideal.hereditary_vertices
    b = ideal.basis_vertices()
    for i in range(A.n):
        if i not in b and A.graph.tree({i}) | h != everything:
            return False
    return ideal.codim == 1 or h == b


def _hyperplanes_over_square_span(algebra, limit):
    """All codimension-one subspaces containing the square span, for prime
    fields with (p^c - 1)/(p - 1) at most ``limit``; each is a maximal ideal."""
    A = algebra
    p = A.field.order
    sq = A.square_span
    functionals = linalg.nullspace(A.field, A.n, sq.basis)
    c = len(functionals)
    out = []
    # Nonzero combinations whose first nonzero coefficient is one, in
    # lexicographic order: one functional per hyperplane.
    combos = (
        v
        for v in itertools.product(range(p), repeat=c)
        if next((x for x in v if x), 0) == 1
    )
    for coeffs in combos:
        if len(out) >= limit:
            break
        phi = [A.field.zero] * A.n
        for coef, fn in zip(coeffs, functionals):
            if coef:
                scal = A.field.from_int(coef)
                phi = [a + scal * b for a, b in zip(phi, fn)]
        kernel = rref(A.field, A.n, linalg.nullspace(A.field, A.n, [tuple(phi)]))
        out.append(Ideal(A, kernel, _validated=True))
    return out


def maximal_ideals_report(algebra, hyperplane_limit=1024) -> dict:
    """Structured description of all maximal ideals.

    Hyperplanes over the square span are reported as a family: none when the
    square span is everything, the square span itself when it has codimension
    one, and otherwise an infinite family over the rationals or an explicit
    enumeration over a prime field when small enough.  Each vertex-span ideal
    of a maximal hereditary set is tagged with the criterion that makes it
    maximal, if any.  For perfect algebras the vertex-span list is complete.
    """
    A = algebra
    sq = A.square_span
    codim = A.n - sq.dim
    report = {
        "dim": A.n,
        "field": A.field.json_descriptor(),
        "perfect": A.is_perfect(),
        "square_span_dim": sq.dim,
        "square_span_codim": codim,
        "square_span_basis": [_vector_strings(A, row) for row in sq.basis],
    }

    finite = A.field.order is not None
    if codim == 0:
        family = {"kind": "none", "count": 0, "ideals": []}
    elif codim == 1:
        family = {
            "kind": "unique",
            "count": 1,
            "ideals": [[_vector_strings(A, row) for row in sq.basis]],
        }
    elif finite:
        p = A.field.order
        total = (p**codim - 1) // (p - 1)
        if total <= hyperplane_limit:
            hyperplanes = _hyperplanes_over_square_span(A, hyperplane_limit)
            family = {
                "kind": "family",
                "count": total,
                "ideals": [
                    [_vector_strings(A, row) for row in ideal.subspace.basis]
                    for ideal in hyperplanes
                ],
            }
        else:
            family = {"kind": "family", "count": total, "ideals": None}
    else:
        family = {"kind": "infinite", "count": None, "ideals": None}
    report["hyperplane_family"] = family

    entries = []
    for h in A.graph.maximal_hereditary_sets():
        ideal = ideal_from_hereditary(A, h)
        criterion = ideal.maximality_criterion() if ideal.is_proper else None
        entries.append(
            {
                "vertices": [A.labels[i] for i in sorted(h)],
                "dim": ideal.dim,
                "maximal": criterion is not None,
                "criterion": criterion,
            }
        )
    report["from_maximal_hereditary"] = entries

    complete = (
        codim <= 1
        or (finite and family.get("ideals") is not None)
    )
    report["complete"] = complete
    return report


def find_proper_nonzero_ideal(algebra, trials=50, seed=0):
    """Search for a proper nonzero ideal: vertex spans of maximal hereditary
    sets first, then closures of random single generators.  Returns an Ideal
    or None; None after a perfect-graph-side verdict of simple is expected to
    be definitive only when backed by the exhaustive oracle."""
    import random

    A = algebra
    for h in A.graph.maximal_hereditary_sets():
        if h:
            return ideal_from_hereditary(A, h)
    rng = random.Random(seed)
    pool = _coefficient_pool(A.field)
    for _ in range(trials):
        vec = [rng.choice(pool) for _ in range(A.n)]
        ideal = ideal_closure(A, [vec])
        if ideal.is_proper and not ideal.is_zero:
            return ideal
    return None


def _coefficient_pool(field):
    if field.order is None:
        return [field.from_int(k) for k in (-2, -1, 0, 1, 2)]
    return [field.from_int(k) for k in range(field.order)]


def _vector_strings(algebra, vec):
    return [algebra.field.format(x) for x in vec]
